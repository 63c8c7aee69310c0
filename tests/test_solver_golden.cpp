// Bit-identity guard for the solver kernel.
//
// The lane, burstiness and finite-buffer extensions degrade to the paper's
// model through their INPUTS (L = 1, C_a² = 1, b = 1, B = ∞), and the three
// paper ablations (M/G/2 pooling, the Eq. 9/10 blocking discount, the
// erratum's 2λ) select between published forms.  This suite pins the exact
// IEEE-754 outputs of both model implementations across that whole space, so
// any refactor of ChannelSolver or its drivers must reproduce them bit for
// bit — no tolerances.
//
// Grids:
//  * extension grid — BFT(2), Hypercube(3), Mesh(3,3) × {uniform,
//    hotspot(0.2)} × lanes {1, 2, 4} × buffer depth {∞, 4} × bandwidth
//    {1, 0.5} × injection process {Poisson, batch(4), MMPP-2};
//  * general-model ablations — BFT(2) hotspot(0.2) × all 8 masks × lanes
//    {1, 4} × buffer depth {∞, 4};
//  * closed form — FatTreeModel levels 3 × all 8 masks × lanes {1, 2}.
// Each row records the saturation rate λ₀* (Eq. 26) and the latency and
// source wait at 0.5·λ₀*.
//
// On a mismatch the test prints the observed table in the source form
// below; paste it in only when a change of answers is intended.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "arrivals/arrival_process.hpp"
#include "core/fattree_model.hpp"
#include "core/traffic_model.hpp"
#include "topo/butterfly_fattree.hpp"
#include "topo/hypercube.hpp"
#include "topo/mesh.hpp"
#include "util/math.hpp"

namespace wormnet {
namespace {

struct Golden {
  const char* tag;
  double latency, inj_wait, saturation_rate;
};

// clang-format off
const Golden kExtensionGrid[] = {
    {"bft2 uniform L1 Binf b1 poisson",
     0x1.82095d2e2b3e2p+4, 0x1.2f506c7cb1365p+1, 0x1.4bfcbbf766198p-6},
    {"bft2 uniform L1 Binf b1 batch4",
     0x1.833587358a282p+6, 0x1.2a7280da5083ep+6, 0x1.38aef4d3eca1cp-6},
    {"bft2 uniform L1 Binf b1 mmpp2",
     0x1.20c71e8c0e1bfp+5, 0x1.bee89d719b784p+3, 0x1.3b35b48e0049ap-6},
    {"bft2 uniform L1 Binf b0.5 poisson",
     0x1.7fbebc9c491c2p+5, 0x1.80f0871540eap+2, 0x1.330e1a386113cp-7},
    {"bft2 uniform L1 Binf b0.5 batch4",
     0x1.86998a3763a0ap+7, 0x1.311d745f26e17p+7, 0x1.239a22918581ep-7},
    {"bft2 uniform L1 Binf b0.5 mmpp2",
     0x1.1c7715034efa9p+6, 0x1.c7b799f35636fp+4, 0x1.25a6558005154p-7},
    {"bft2 uniform L1 B4 b1 poisson",
     0x1.e0d8654769121p+4, 0x1.8e9ba288193b5p+1, 0x1.f5c134f26bac6p-7},
    {"bft2 uniform L1 B4 b1 batch4",
     0x1.e65ca4e1f74dcp+6, 0x1.785f7561b53fp+6, 0x1.d84ab65e74338p-7},
    {"bft2 uniform L1 B4 b1 mmpp2",
     0x1.647106b0f97b5p+5, 0x1.1225e9bf1d7c1p+4, 0x1.dc261da7f7498p-7},
    {"bft2 uniform L1 B4 b0.5 poisson",
     0x1.b32e9fb8867a1p+5, 0x1.bd344170865acp+2, 0x1.07078efdbd24ep-7},
    {"bft2 uniform L1 B4 b0.5 batch4",
     0x1.bac79d4efab11p+7, 0x1.5a1c1d7d4a22ap+7, 0x1.f3bfcf12f0484p-8},
    {"bft2 uniform L1 B4 b0.5 mmpp2",
     0x1.4019971744456p+6, 0x1.fd018b206ae6p+4, 0x1.f73d984a0c934p-8},
    {"bft2 uniform L2 Binf b1 poisson",
     0x1.b7759066b1859p+4, 0x1.4e1483f5930e1p-2, 0x1.967ca3f12fb34p-6},
    {"bft2 uniform L2 Binf b1 batch4",
     0x1.9a5524abf0febp+6, 0x1.2df92c3904a08p+6, 0x1.931220a55a17p-6},
    {"bft2 uniform L2 Binf b1 mmpp2",
     0x1.ce27097977dd9p+4, 0x1.c9af2774aeb04p+0, 0x1.938b0818d50d6p-6},
    {"bft2 uniform L2 Binf b0.5 poisson",
     0x1.823060be1f0ffp+5, 0x1.8c23812402686p+2, 0x1.381faefb6c13p-7},
    {"bft2 uniform L2 Binf b0.5 batch4",
     0x1.84e642869fbcep+7, 0x1.30437d714b329p+7, 0x1.2fdf25f2aa3bp-7},
    {"bft2 uniform L2 Binf b0.5 mmpp2",
     0x1.1e50793a84ff9p+6, 0x1.d48b53908ad6fp+4, 0x1.313c25bbbe726p-7},
    {"bft2 uniform L2 B4 b1 poisson",
     0x1.e5bb5c9e7099p+4, 0x1.9a4576bebd3dcp+1, 0x1.f819d946641bep-7},
    {"bft2 uniform L2 B4 b1 batch4",
     0x1.e644a13923f6ap+6, 0x1.78eacb9f03266p+6, 0x1.ea5a26e9a6ca2p-7},
    {"bft2 uniform L2 B4 b1 mmpp2",
     0x1.6844ca549824ep+5, 0x1.1b62d09dceeep+4, 0x1.ece59672eb1cep-7},
    {"bft2 uniform L2 B4 b0.5 poisson",
     0x1.b2fe0748fc907p+5, 0x1.cadd54e8965fcp+2, 0x1.109a1e471c514p-7},
    {"bft2 uniform L2 B4 b0.5 batch4",
     0x1.b4924e16716acp+7, 0x1.55c919d397c1ep+7, 0x1.07c2a9a72b01ap-7},
    {"bft2 uniform L2 B4 b0.5 mmpp2",
     0x1.3f4b74d2cf86ap+6, 0x1.03a7fdd07cfcap+5, 0x1.08f44fa2039bcp-7},
    {"bft2 uniform L4 Binf b1 poisson",
     0x1.e33b5e41fdd2ap+4, 0x1.3b3161e05800bp-10, 0x1.6568bf7d70a74p-6},
    {"bft2 uniform L4 Binf b1 batch4",
     0x1.c406cadacb278p+6, 0x1.4b3a2bba343b8p+6, 0x1.65620a1f09b42p-6},
    {"bft2 uniform L4 Binf b1 mmpp2",
     0x1.e34d834dfffc6p+4, 0x1.a772b80a97a7cp-8, 0x1.6562fd9f86af6p-6},
    {"bft2 uniform L4 Binf b0.5 poisson",
     0x1.86d78e2a62d6ap+5, 0x1.88fa039b6485ap+2, 0x1.2bed2b143cdecp-7},
    {"bft2 uniform L4 Binf b0.5 batch4",
     0x1.89202313fb85ap+7, 0x1.336ada2cd992fp+7, 0x1.281d207762e5p-7},
    {"bft2 uniform L4 Binf b0.5 mmpp2",
     0x1.20030d5236625p+6, 0x1.d2b2a80cfd93cp+4, 0x1.28a30ae9c73b4p-7},
    {"bft2 uniform L4 B4 b1 poisson",
     0x1.ecbaea2720362p+4, 0x1.97f65dff8262fp+1, 0x1.e266c372b48fcp-7},
    {"bft2 uniform L4 B4 b1 batch4",
     0x1.ebc618e762cfp+6, 0x1.7cf5bf90a16b8p+6, 0x1.db666957c87ecp-7},
    {"bft2 uniform L4 B4 b1 mmpp2",
     0x1.6a1a399ffd108p+5, 0x1.192a3d30f9ca6p+4, 0x1.dc5b1eb2f12dcp-7},
    {"bft2 uniform L4 B4 b0.5 poisson",
     0x1.b7be0aae6f3edp+5, 0x1.c9322898a608p+2, 0x1.08195aa3e440cp-7},
    {"bft2 uniform L4 B4 b0.5 batch4",
     0x1.ba7e3bb99b8e3p+7, 0x1.5a84759780687p+7, 0x1.04af72273a07p-7},
    {"bft2 uniform L4 B4 b0.5 mmpp2",
     0x1.435a8c5f32351p+6, 0x1.06fd779c744b7p+5, 0x1.05276b448234cp-7},
    {"bft2 hot0.2 L1 Binf b1 poisson",
     0x1.644fae958f38bp+4, 0x1.3b27709063efep+0, 0x1.9c0258707b7bcp-7},
    {"bft2 hot0.2 L1 Binf b1 batch4",
     0x1.5e9e129f989dcp+6, 0x1.0734e4718b3e2p+6, 0x1.693d6d48ca282p-7},
    {"bft2 hot0.2 L1 Binf b1 mmpp2",
     0x1.cdb35a17ea798p+4, 0x1.c7204e7d34ffap+2, 0x1.6f242c68086b8p-7},
    {"bft2 hot0.2 L1 Binf b0.5 poisson",
     0x1.5d8a9087a04e2p+5, 0x1.9c262792f3767p+1, 0x1.86fec3346cbe4p-8},
    {"bft2 hot0.2 L1 Binf b0.5 batch4",
     0x1.61fcef59a0026p+7, 0x1.0e07cf42e0542p+7, 0x1.5b0c729bea954p-8},
    {"bft2 hot0.2 L1 Binf b0.5 mmpp2",
     0x1.c6427cee29a09p+5, 0x1.e029bb816bd44p+3, 0x1.604497710654cp-8},
    {"bft2 hot0.2 L1 B4 b1 poisson",
     0x1.ba8167378c508p+4, 0x1.a57e86ea4f5acp+0, 0x1.3cfbf8c4db16cp-7},
    {"bft2 hot0.2 L1 B4 b1 batch4",
     0x1.b9f695e3b0342p+6, 0x1.4db71a6857d98p+6, 0x1.1491975904844p-7},
    {"bft2 hot0.2 L1 B4 b1 mmpp2",
     0x1.1e8d27ee8cc81p+5, 0x1.1caf0660195ecp+3, 0x1.193f69dac5b82p-7},
    {"bft2 hot0.2 L1 B4 b0.5 poisson",
     0x1.8c0934dd461fep+5, 0x1.e30fcec91bd9fp+1, 0x1.522fbd5cc60dep-8},
    {"bft2 hot0.2 L1 B4 b0.5 batch4",
     0x1.91f1dd4c06f2p+7, 0x1.33137c7bf40b3p+7, 0x1.2be7a8f99d456p-8},
    {"bft2 hot0.2 L1 B4 b0.5 mmpp2",
     0x1.0098cbd5dc41dp+6, 0x1.0f17bd8adbf3fp+4, 0x1.30757981ce112p-8},
    {"bft2 hot0.2 L2 Binf b1 poisson",
     0x1.8cace058653bbp+4, 0x1.6d8f6f4c13618p-4, 0x1.fe7b9368c1de8p-7},
    {"bft2 hot0.2 L2 Binf b1 batch4",
     0x1.6ca7cc7f79b9p+6, 0x1.0a3cc4036a9cp+6, 0x1.f01f2300b1668p-7},
    {"bft2 hot0.2 L2 Binf b1 mmpp2",
     0x1.919ef8d6a60cap+4, 0x1.f035deaed6af7p-2, 0x1.f1f9caad670ap-7},
    {"bft2 hot0.2 L2 Binf b0.5 poisson",
     0x1.4fccbf8d2a087p+5, 0x1.3444857592effp+1, 0x1.3e03d258b2608p-8},
    {"bft2 hot0.2 L2 Binf b0.5 batch4",
     0x1.4d3a66d80c569p+7, 0x1.f9297694f9585p+6, 0x1.2ce19d2de062ep-8},
    {"bft2 hot0.2 L2 Binf b0.5 mmpp2",
     0x1.9eb8b83e8abb9p+5, 0x1.73d6de13bb599p+3, 0x1.2f1505d35de5p-8},
    {"bft2 hot0.2 L2 B4 b1 poisson",
     0x1.ad120a4e902afp+4, 0x1.3c859ca048dcep+0, 0x1.ff3558d8d6ce6p-8},
    {"bft2 hot0.2 L2 B4 b1 batch4",
     0x1.a1e97c8bd03a4p+6, 0x1.398060f598483p+6, 0x1.e01d4730eed56p-8},
    {"bft2 hot0.2 L2 B4 b1 mmpp2",
     0x1.07c82bed4c8c8p+5, 0x1.bc3a576d6cccp+2, 0x1.e40e4451807fap-8},
    {"bft2 hot0.2 L2 B4 b0.5 poisson",
     0x1.79d2701f4460dp+5, 0x1.69be8634090c9p+1, 0x1.1778ed2f2fbcap-8},
    {"bft2 hot0.2 L2 B4 b0.5 batch4",
     0x1.7847121eb523cp+7, 0x1.1db9e31d6ef0dp+7, 0x1.07e6128ce0b2p-8},
    {"bft2 hot0.2 L2 B4 b0.5 mmpp2",
     0x1.d27ef9dc81871p+5, 0x1.a4fade0c9eac5p+3, 0x1.09e530495c004p-8},
    {"bft2 hot0.2 L4 Binf b1 poisson",
     0x1.cc0efa838fba3p+4, 0x1.384a0ab3016bap-12, 0x1.0a9f47370f1b2p-6},
    {"bft2 hot0.2 L4 Binf b1 batch4",
     0x1.abc26882d2b54p+6, 0x1.3905764edbdb9p+6, 0x1.092a2829b6e76p-6},
    {"bft2 hot0.2 L4 Binf b1 mmpp2",
     0x1.cb208dc7a4005p+4, 0x1.9d4fc2b8c8d7fp-10, 0x1.095cf03c871dap-6},
    {"bft2 hot0.2 L4 Binf b0.5 poisson",
     0x1.4c035f54b5d1dp+5, 0x1.13f3b6406101ep+1, 0x1.23595d5db964ap-8},
    {"bft2 hot0.2 L4 Binf b0.5 batch4",
     0x1.45fc6c84953ap+7, 0x1.ed0c660e8bf1dp+6, 0x1.1b4d6ec90952ap-8},
    {"bft2 hot0.2 L4 Binf b0.5 mmpp2",
     0x1.916cbbe48485ap+5, 0x1.500529fe50f55p+3, 0x1.1c6110865f90ep-8},
    {"bft2 hot0.2 L4 B4 b1 poisson",
     0x1.a9d1e48c75e1bp+4, 0x1.1c33495a09915p+0, 0x1.d2e0c03d7673cp-8},
    {"bft2 hot0.2 L4 B4 b1 batch4",
     0x1.99aa161690cfap+6, 0x1.32982aff6866fp+6, 0x1.c45cf71ab0ca2p-8},
    {"bft2 hot0.2 L4 B4 b1 mmpp2",
     0x1.003880b4eb9c2p+5, 0x1.92fbf5e1e34f1p+2, 0x1.c64a6a2de17b6p-8},
    {"bft2 hot0.2 L4 B4 b0.5 poisson",
     0x1.749909c0aaac5p+5, 0x1.43f245af8dc8fp+1, 0x1.0193d94217f3cp-8},
    {"bft2 hot0.2 L4 B4 b0.5 batch4",
     0x1.6f3964f388f93p+7, 0x1.163d05974d64bp+7, 0x1.f438012544218p-9},
    {"bft2 hot0.2 L4 B4 b0.5 mmpp2",
     0x1.c2ad5fd7c962cp+5, 0x1.7cedcc8196855p+3, 0x1.f63671187f478p-9},
    {"hc3 uniform L1 Binf b1 poisson",
     0x1.ac74167f8ce23p+4, 0x1.3f6933c16b6cfp+2, 0x1.2228d0878092p-5},
    {"hc3 uniform L1 Binf b1 batch4",
     0x1.d5c297ba53208p+6, 0x1.781f5d0c9c516p+6, 0x1.e2228726fbe3ap-6},
    {"hc3 uniform L1 Binf b1 mmpp2",
     0x1.9beb75cded5d5p+5, 0x1.c49959e70d978p+4, 0x1.ecfd96b06083p-6},
    {"hc3 uniform L1 Binf b0.5 poisson",
     0x1.b5237a7d0a85fp+5, 0x1.9682f10d5dce1p+3, 0x1.0ec90a3a2c86ep-6},
    {"hc3 uniform L1 Binf b0.5 batch4",
     0x1.dad533fc751a8p+7, 0x1.80e54155d366fp+7, 0x1.cb7517de0dadcp-7},
    {"hc3 uniform L1 Binf b0.5 mmpp2",
     0x1.9c0fe85b7f78bp+6, 0x1.d38223154080ap+5, 0x1.d4d5996d20422p-7},
    {"hc3 uniform L1 B4 b1 poisson",
     0x1.0c5bd4628501ap+5, 0x1.9553692814cf2p+2, 0x1.a6654b3dcff84p-6},
    {"hc3 uniform L1 B4 b1 batch4",
     0x1.25129d5c8b6ecp+7, 0x1.d49b7e0665af4p+6, 0x1.5815a9507f2ap-6},
    {"hc3 uniform L1 B4 b1 mmpp2",
     0x1.f1013e08ba2dfp+5, 0x1.082124e9f0e17p+5, 0x1.60b06c7706756p-6},
    {"hc3 uniform L1 B4 b0.5 poisson",
     0x1.f051f0deef973p+5, 0x1.ca5b6d3afbc52p+3, 0x1.c3cb7b83e53cp-7},
    {"hc3 uniform L1 B4 b0.5 batch4",
     0x1.0b3e1099339fcp+8, 0x1.b0121fe28ac24p+7, 0x1.7ba5ac998d2c4p-7},
    {"hc3 uniform L1 B4 b0.5 mmpp2",
     0x1.c6c6fb6c77b88p+6, 0x1.f77e6da4960dcp+5, 0x1.83e3e3de19fap-7},
    {"hc3 uniform L2 Binf b1 poisson",
     0x1.9e6c879de91dap+4, 0x1.a12cb05701d09p-2, 0x1.0090c2a978b3ep-5},
    {"hc3 uniform L2 Binf b1 batch4",
     0x1.81a4065ff9955p+6, 0x1.1bafddabe54cfp+6, 0x1.fc46d97d0c9fcp-6},
    {"hc3 uniform L2 Binf b1 mmpp2",
     0x1.bc86f09b6b2a5p+4, 0x1.2599593351209p+1, 0x1.fcf3a170a49aep-6},
    {"hc3 uniform L2 Binf b0.5 poisson",
     0x1.b7bcc396fe0f9p+5, 0x1.79d2520505d39p+3, 0x1.e5588c31ac178p-7},
    {"hc3 uniform L2 Binf b0.5 batch4",
     0x1.ceca9391c9328p+7, 0x1.758871fa421a4p+7, 0x1.ba423038a5972p-7},
    {"hc3 uniform L2 Binf b0.5 mmpp2",
     0x1.8ab94917bf08ap+6, 0x1.b1ffd4fd03411p+5, 0x1.bf881f2097766p-7},
    {"hc3 uniform L2 B4 b1 poisson",
     0x1.0f98144c7155bp+5, 0x1.7ff4ff811ff09p+2, 0x1.7f9bf0dca43bcp-6},
    {"hc3 uniform L2 B4 b1 batch4",
     0x1.1f02e1b7ac5cp+7, 0x1.c9f1612eb4de4p+6, 0x1.55b92c5595458p-6},
    {"hc3 uniform L2 B4 b1 mmpp2",
     0x1.e36b32f3d0fefp+5, 0x1.f8cc8abc84a51p+4, 0x1.5abc5cb692eccp-6},
    {"hc3 uniform L2 B4 b0.5 poisson",
     0x1.f0e3f08853e01p+5, 0x1.b0059347d020ep+3, 0x1.a165570be76a6p-7},
    {"hc3 uniform L2 B4 b0.5 batch4",
     0x1.045ec5859afc4p+8, 0x1.a406844e30bd3p+7, 0x1.79a74e599ad08p-7},
    {"hc3 uniform L2 B4 b0.5 mmpp2",
     0x1.b777cd4fe8885p+6, 0x1.ddf3cf8474e5ap+5, 0x1.7e84dcaacb808p-7},
    {"hc3 uniform L4 Binf b1 poisson",
     0x1.b9e0c30beb9dp+4, 0x1.9478b2ea458c7p-10, 0x1.b6dcfb8f404d4p-6},
    {"hc3 uniform L4 Binf b1 batch4",
     0x1.9950e1f9a27adp+6, 0x1.2ada962711f83p+6, 0x1.b6d90e0eaba14p-6},
    {"hc3 uniform L4 Binf b1 mmpp2",
     0x1.b9fc87e091631p+4, 0x1.1957858c1dd33p-7, 0x1.b6d99ca7ebcc8p-6},
    {"hc3 uniform L4 Binf b0.5 poisson",
     0x1.bd1fbeb4b8c56p+5, 0x1.7c5ccde1869e9p+3, 0x1.d9fe2b6595ddcp-7},
    {"hc3 uniform L4 Binf b0.5 batch4",
     0x1.cdec3a092cfedp+7, 0x1.7507cb1d26c73p+7, 0x1.bf3ce19e8080ep-7},
    {"hc3 uniform L4 Binf b0.5 mmpp2",
     0x1.8b6e8e7438f1cp+6, 0x1.b411ea06aa356p+5, 0x1.c29d9c53b8b0cp-7},
    {"hc3 uniform L4 B4 b1 poisson",
     0x1.137e3db838b2ep+5, 0x1.86916b283b5f9p+2, 0x1.78bba84e629b2p-6},
    {"hc3 uniform L4 B4 b1 batch4",
     0x1.1f0c9cf867842p+7, 0x1.cab80c145f0bep+6, 0x1.5ed399298baaap-6},
    {"hc3 uniform L4 B4 b1 mmpp2",
     0x1.e77c036d69371p+5, 0x1.014b1ee204007p+5, 0x1.620d4db54016ep-6},
    {"hc3 uniform L4 B4 b0.5 poisson",
     0x1.f5fd1f8d6e9ap+5, 0x1.b5dd38ad2bbep+3, 0x1.9d6e306759548p-7},
    {"hc3 uniform L4 B4 b0.5 batch4",
     0x1.03a43508d43adp+8, 0x1.a375b5d3a54ecp+7, 0x1.8455c675b4b54p-7},
    {"hc3 uniform L4 B4 b0.5 mmpp2",
     0x1.b9c9e7d788f5cp+6, 0x1.e53a4465d0df2p+5, 0x1.878202e40b2p-7},
    {"hc3 hot0.2 L1 Binf b1 poisson",
     0x1.752305ee5f174p+4, 0x1.2c8c98f90dd82p+1, 0x1.6a685a00d8152p-6},
    {"hc3 hot0.2 L1 Binf b1 batch4",
     0x1.854388a44f3c9p+6, 0x1.2a2be85df1e6cp+6, 0x1.1353c66a4074p-6},
    {"hc3 hot0.2 L1 Binf b1 mmpp2",
     0x1.1abb19bb22e65p+5, 0x1.993579e334804p+3, 0x1.1c0fd31c524a8p-6},
    {"hc3 hot0.2 L1 Binf b0.5 poisson",
     0x1.720bd4f2f5a44p+5, 0x1.86973d960089ap+2, 0x1.58b1cb5dd67bap-7},
    {"hc3 hot0.2 L1 Binf b0.5 batch4",
     0x1.8825a39394086p+7, 0x1.31195f7e2724fp+7, 0x1.0b1b558ded412p-7},
    {"hc3 hot0.2 L1 Binf b0.5 mmpp2",
     0x1.183d5b43f8a11p+6, 0x1.af43571958c31p+4, 0x1.131af1b6db99cp-7},
    {"hc3 hot0.2 L1 B4 b1 poisson",
     0x1.cf68e09c980fbp+4, 0x1.7d5ee72e17e88p+1, 0x1.0a1bed50ce5b2p-6},
    {"hc3 hot0.2 L1 B4 b1 batch4",
     0x1.e04a9f506c354p+6, 0x1.6fea78226203bp+6, 0x1.7f18ce12461aap-7},
    {"hc3 hot0.2 L1 B4 b1 mmpp2",
     0x1.50b7d95a2a17bp+5, 0x1.c7d8c33f0336cp+3, 0x1.8d842badc33d8p-7},
    {"hc3 hot0.2 L1 B4 b0.5 poisson",
     0x1.a12e74d1f4919p+5, 0x1.b309081e36a2dp+2, 0x1.1e6fedac199f2p-7},
    {"hc3 hot0.2 L1 B4 b0.5 batch4",
     0x1.b25c59941dbcap+7, 0x1.50e1a36734a77p+7, 0x1.ac47d2a3962d4p-8},
    {"hc3 hot0.2 L1 B4 b0.5 mmpp2",
     0x1.2ef0524a3061fp+6, 0x1.b678ebe4dd93p+4, 0x1.bae8dab89d44p-8},
    {"hc3 hot0.2 L2 Binf b1 poisson",
     0x1.9689461a9a308p+4, 0x1.143be51344362p-2, 0x1.ae4ebc848d544p-6},
    {"hc3 hot0.2 L2 Binf b1 batch4",
     0x1.731c3167f2c4p+6, 0x1.0fad3686fc5a8p+6, 0x1.9359b8c3f85a2p-6},
    {"hc3 hot0.2 L2 Binf b1 mmpp2",
     0x1.a3969c702e179p+4, 0x1.55b61640deaf2p+0, 0x1.9680e0fd28e1p-6},
    {"hc3 hot0.2 L2 Binf b0.5 poisson",
     0x1.6681972cb06bcp+5, 0x1.27fca65970ecp+2, 0x1.11ca1728f9488p-7},
    {"hc3 hot0.2 L2 Binf b0.5 batch4",
     0x1.6f834c0102078p+7, 0x1.1bc613625b63bp+7, 0x1.e4e9c5c666e4p-8},
    {"hc3 hot0.2 L2 Binf b0.5 mmpp2",
     0x1.fad6dc65fb27p+5, 0x1.5b4690ce48078p+4, 0x1.ec63b873290fp-8},
    {"hc3 hot0.2 L2 B4 b1 poisson",
     0x1.c68e62110f429p+4, 0x1.2b57e1e32b136p+1, 0x1.affb6056cdb94p-7},
    {"hc3 hot0.2 L2 B4 b1 batch4",
     0x1.c9f5b3a150bd8p+6, 0x1.5d3df6a86c1cdp+6, 0x1.70675d9e35042p-7},
    {"hc3 hot0.2 L2 B4 b1 mmpp2",
     0x1.3b51052f7ae9dp+5, 0x1.8c00a201a8p+3, 0x1.77c4f38d0d014p-7},
    {"hc3 hot0.2 L2 B4 b0.5 poisson",
     0x1.93cd647804b8dp+5, 0x1.55c65ad0b229p+2, 0x1.da0309b758e62p-8},
    {"hc3 hot0.2 L2 B4 b0.5 batch4",
     0x1.9c31a9578b986p+7, 0x1.3e491723fff6p+7, 0x1.9abd4ce1ce18p-8},
    {"hc3 hot0.2 L2 B4 b0.5 mmpp2",
     0x1.194ab7c19b503p+6, 0x1.799d5708f0bcbp+4, 0x1.a2398cd5a506ap-8},
    {"hc3 hot0.2 L4 Binf b1 poisson",
     0x1.bfb083c64bb07p+4, 0x1.337c1edab91e6p-10, 0x1.8f3a235bf098ep-6},
    {"hc3 hot0.2 L4 Binf b1 batch4",
     0x1.9e6f378c4aeep+6, 0x1.2eb0ae77a9626p+6, 0x1.8da6390e3675ep-6},
    {"hc3 hot0.2 L4 Binf b1 mmpp2",
     0x1.bf2c836e539ecp+4, 0x1.a0467913ae35dp-8, 0x1.8dddb0019faaap-6},
    {"hc3 hot0.2 L4 Binf b0.5 poisson",
     0x1.625e04d427f67p+5, 0x1.09f204d6fe54cp+2, 0x1.f56515d5f3efcp-8},
    {"hc3 hot0.2 L4 Binf b0.5 batch4",
     0x1.649590f962954p+7, 0x1.1293e0881770fp+7, 0x1.d6a15beebdf4cp-8},
    {"hc3 hot0.2 L4 Binf b0.5 mmpp2",
     0x1.e61fdaf3ead5fp+5, 0x1.3e0dde7e7a801p+4, 0x1.da95c15402edep-8},
    {"hc3 hot0.2 L4 B4 b1 poisson",
     0x1.c349148db2f84p+4, 0x1.1086520692a17p+1, 0x1.8e9f21cc80722p-7},
    {"hc3 hot0.2 L4 B4 b1 batch4",
     0x1.bef126d1177a7p+6, 0x1.54473dba8556cp+6, 0x1.6f3063f90c712p-7},
    {"hc3 hot0.2 L4 B4 b1 mmpp2",
     0x1.3241ca0943393p+5, 0x1.7633ed28210cbp+3, 0x1.732fcb0e0e7aep-7},
    {"hc3 hot0.2 L4 B4 b0.5 poisson",
     0x1.8e795fbf02962p+5, 0x1.366207ae665ebp+2, 0x1.b8974328d8fa4p-8},
    {"hc3 hot0.2 L4 B4 b0.5 batch4",
     0x1.91280bfde2907p+7, 0x1.3545edd393c46p+7, 0x1.98f4c4eb62fep-8},
    {"hc3 hot0.2 L4 B4 b0.5 mmpp2",
     0x1.0ffe80b392eebp+6, 0x1.62fd7f1cf1b7fp+4, 0x1.9d0649142e5ccp-8},
    {"mesh3x3 uniform L1 Binf b1 poisson",
     0x1.bf66f9c0d0171p+4, 0x1.0dcfad5aeffb2p+2, 0x1.d966cb59e27dep-6},
    {"mesh3x3 uniform L1 Binf b1 batch4",
     0x1.c5a4f8bb8c0bap+6, 0x1.646214ae10536p+6, 0x1.b64c9238bb6f6p-6},
    {"mesh3x3 uniform L1 Binf b1 mmpp2",
     0x1.8403feabd5ec3p+5, 0x1.8439397274635p+4, 0x1.bad5be7c7f576p-6},
    {"mesh3x3 uniform L1 Binf b0.5 poisson",
     0x1.bc8eff18d6f52p+5, 0x1.51327574c5fd7p+3, 0x1.adfb8cf4c6f92p-7},
    {"mesh3x3 uniform L1 Binf b0.5 batch4",
     0x1.c7b77aa27a924p+7, 0x1.6b94686748a7p+7, 0x1.92a4ebd5fe618p-7},
    {"mesh3x3 uniform L1 Binf b0.5 mmpp2",
     0x1.7ab9daff6e414p+6, 0x1.8609edebdbe5ep+5, 0x1.963b749a6803ep-7},
    {"mesh3x3 uniform L1 B4 b1 poisson",
     0x1.13cb064248b65p+5, 0x1.48243c9a2fcbap+2, 0x1.4d1ee1a06fbf2p-6},
    {"mesh3x3 uniform L1 B4 b1 batch4",
     0x1.1771396fe2c91p+7, 0x1.b69c105c79444p+6, 0x1.32dcca60114e8p-6},
    {"mesh3x3 uniform L1 B4 b1 mmpp2",
     0x1.c9c03d22a2b72p+5, 0x1.b3f7d50a932f1p+4, 0x1.3640d1eda1934p-6},
    {"mesh3x3 uniform L1 B4 b0.5 poisson",
     0x1.f4454809f86edp+5, 0x1.71730de7abee1p+3, 0x1.6030f05f2747ep-7},
    {"mesh3x3 uniform L1 B4 b0.5 batch4",
     0x1.fe0a63f44ee7ap+7, 0x1.95c51f9ce144p+7, 0x1.48fb59bbb468p-7},
    {"mesh3x3 uniform L1 B4 b0.5 mmpp2",
     0x1.9d8f0ef74e558p+6, 0x1.9b49f68ff59c8p+5, 0x1.4c07bce7ea3ep-7},
    {"mesh3x3 uniform L2 Binf b1 poisson",
     0x1.c3fa1b6167b41p+4, 0x1.a36d79eb5b9c4p-2, 0x1.d4dbc5e78e208p-6},
    {"mesh3x3 uniform L2 Binf b1 batch4",
     0x1.9a718e41b5e1bp+6, 0x1.2b1eb7914268fp+6, 0x1.d314c8aa22114p-6},
    {"mesh3x3 uniform L2 Binf b1 mmpp2",
     0x1.e1e91bfce1d49p+4, 0x1.24c8a18bda79ep+1, 0x1.d354f025d2a36p-6},
    {"mesh3x3 uniform L2 Binf b0.5 poisson",
     0x1.bbd0914d73a86p+5, 0x1.4dc9862153be9p+3, 0x1.aaaec0beb5bc8p-7},
    {"mesh3x3 uniform L2 Binf b0.5 batch4",
     0x1.c35d3180d0eb8p+7, 0x1.683a385fd3929p+7, 0x1.9a76dc7912936p-7},
    {"mesh3x3 uniform L2 Binf b0.5 mmpp2",
     0x1.783007ec1bdbfp+6, 0x1.8468eed2f11c5p+5, 0x1.9ca59d13f5218p-7},
    {"mesh3x3 uniform L2 B4 b1 poisson",
     0x1.152d55f6d76edp+5, 0x1.4e24be3cd0195p+2, 0x1.4f983091db9e4p-6},
    {"mesh3x3 uniform L2 B4 b1 batch4",
     0x1.172377cfbaee9p+7, 0x1.b716741a12c68p+6, 0x1.3fd3b91d19b94p-6},
    {"mesh3x3 uniform L2 B4 b1 mmpp2",
     0x1.ce2fefb5cd6ddp+5, 0x1.c0702f8fd55a4p+4, 0x1.41edbe358b284p-6},
    {"mesh3x3 uniform L2 B4 b0.5 poisson",
     0x1.f2b9791571692p+5, 0x1.776bae2fb0687p+3, 0x1.6a462ec7bba1ep-7},
    {"mesh3x3 uniform L2 B4 b0.5 batch4",
     0x1.f9cf943e7377ep+7, 0x1.9363231a39966p+7, 0x1.5badf6d7af9d6p-7},
    {"mesh3x3 uniform L2 B4 b0.5 mmpp2",
     0x1.9f808ec3a6de2p+6, 0x1.a5faca6e22144p+5, 0x1.5da4cbdff6912p-7},
    {"mesh3x3 uniform L4 Binf b1 poisson",
     0x1.e5503f92417fap+4, 0x1.97f944ebf5bd3p-10, 0x1.924a79a8a624ep-6},
    {"mesh3x3 uniform L4 Binf b1 batch4",
     0x1.b8180ce36bbd9p+6, 0x1.3ec5babbcaa98p+6, 0x1.924917d9b6e5cp-6},
    {"mesh3x3 uniform L4 Binf b1 mmpp2",
     0x1.e56c0fbb2a909p+4, 0x1.158d7ef9bedc8p-7, 0x1.92494a0837f8cp-6},
    {"mesh3x3 uniform L4 Binf b0.5 poisson",
     0x1.c0d4c623e08ebp+5, 0x1.5e5910804b492p+3, 0x1.b7b31c2a5e22ep-7},
    {"mesh3x3 uniform L4 Binf b0.5 batch4",
     0x1.c7c5c250e20cp+7, 0x1.6cf5bea49c99cp+7, 0x1.ad09075cb0c3cp-7},
    {"mesh3x3 uniform L4 Binf b0.5 mmpp2",
     0x1.81b9cb7fd48b1p+6, 0x1.987bea4d69f6ep+5, 0x1.ae7cf94512cdp-7},
    {"mesh3x3 uniform L4 B4 b1 poisson",
     0x1.18ebb23853e5cp+5, 0x1.64394bcb17e0bp+2, 0x1.5c4f3556ece48p-6},
    {"mesh3x3 uniform L4 B4 b1 batch4",
     0x1.1b12dc5b2f32dp+7, 0x1.bf3ae19131d65p+6, 0x1.51fd93b0720eap-6},
    {"mesh3x3 uniform L4 B4 b1 mmpp2",
     0x1.dd82a167f469bp+5, 0x1.dfc1a89878069p+4, 0x1.53633fe925026p-6},
    {"mesh3x3 uniform L4 B4 b0.5 poisson",
     0x1.f7ee8a66322a2p+5, 0x1.8f06d67748cfbp+3, 0x1.7c4cc5de6c69ep-7},
    {"mesh3x3 uniform L4 B4 b0.5 batch4",
     0x1.feba95a83b70ap+7, 0x1.99164b948dc0cp+7, 0x1.72765e2ae49ecp-7},
    {"mesh3x3 uniform L4 B4 b0.5 mmpp2",
     0x1.ac4464e93275bp+6, 0x1.c24dc0cc12a55p+5, 0x1.73cd8503a99c2p-7},
    {"mesh3x3 hot0.2 L1 Binf b1 poisson",
     0x1.62c3d8ff97f5fp+4, 0x1.4f1e754edac12p-1, 0x1.faac6560fb7d4p-8},
    {"mesh3x3 hot0.2 L1 Binf b1 batch4",
     0x1.48030c1dd00acp+6, 0x1.dc9a132a5c631p+5, 0x1.84874a928c89cp-8},
    {"mesh3x3 hot0.2 L1 Binf b1 mmpp2",
     0x1.9bc664ff59e0dp+4, 0x1.b5795901eb653p+1, 0x1.911c85b3960fep-8},
    {"mesh3x3 hot0.2 L1 Binf b0.5 poisson",
     0x1.4c3cd24399419p+5, 0x1.a6b875ede8725p+0, 0x1.dba36dcda99c6p-9},
    {"mesh3x3 hot0.2 L1 Binf b0.5 batch4",
     0x1.44e7faadd86c6p+7, 0x1.e3a95a6ddbf27p+6, 0x1.740590cc2e83ep-9},
    {"mesh3x3 hot0.2 L1 Binf b0.5 mmpp2",
     0x1.83137c8dd60d4p+5, 0x1.c330a7733ea9fp+2, 0x1.7f4f1ffdb2af6p-9},
    {"mesh3x3 hot0.2 L1 B4 b1 poisson",
     0x1.b0044b451c8bdp+4, 0x1.9873a360752bap-1, 0x1.6aa4c78a9fa9ep-8},
    {"mesh3x3 hot0.2 L1 B4 b1 batch4",
     0x1.967ce849a35f3p+6, 0x1.298389591a759p+6, 0x1.0ae962bf855a2p-8},
    {"mesh3x3 hot0.2 L1 B4 b1 mmpp2",
     0x1.ee262a53611afp+4, 0x1.e1baa6ec986afp+1, 0x1.14bc649d04306p-8},
    {"mesh3x3 hot0.2 L1 B4 b0.5 poisson",
     0x1.74751bac4410fp+5, 0x1.d3e79b4f456fbp+0, 0x1.885e0f202850ep-9},
    {"mesh3x3 hot0.2 L1 B4 b0.5 batch4",
     0x1.6c964a4aa3defp+7, 0x1.0fb97772302d2p+7, 0x1.2c62539a26a8cp-9},
    {"mesh3x3 hot0.2 L1 B4 b0.5 mmpp2",
     0x1.ac664f2619a37p+5, 0x1.d4bd9ecde9c14p+2, 0x1.3641f8c90754cp-9},
    {"mesh3x3 hot0.2 L2 Binf b1 poisson",
     0x1.7f087160d628fp+4, 0x1.92f3102a95f09p-6, 0x1.3bc180dbb21ecp-7},
    {"mesh3x3 hot0.2 L2 Binf b1 batch4",
     0x1.4f0f9d5c5a1fp+6, 0x1.dfda5a1262b0fp+5, 0x1.2b1f9a601321ep-7},
    {"mesh3x3 hot0.2 L2 Binf b1 mmpp2",
     0x1.7ee157ee3424bp+4, 0x1.0b593e68bca37p-3, 0x1.2d2e5ba261776p-7},
    {"mesh3x3 hot0.2 L2 Binf b0.5 poisson",
     0x1.4664dbafd35c4p+5, 0x1.4fa6577931fdap+0, 0x1.88969977a8c88p-9},
    {"mesh3x3 hot0.2 L2 Binf b0.5 batch4",
     0x1.39f40fc24de6fp+7, 0x1.d24c15c53d83fp+6, 0x1.5eb956ece062cp-9},
    {"mesh3x3 hot0.2 L2 Binf b0.5 mmpp2",
     0x1.73590dfb68677p+5, 0x1.889eb2951fce4p+2, 0x1.63f415acac328p-9},
    {"mesh3x3 hot0.2 L2 B4 b1 poisson",
     0x1.ab2a476bfdf2dp+4, 0x1.500133e3b19ecp-1, 0x1.32c70546f19dp-8},
    {"mesh3x3 hot0.2 L2 B4 b1 batch4",
     0x1.8be412e8e7a7p+6, 0x1.21510c5303dbep+6, 0x1.094eb3ab5389ep-8},
    {"mesh3x3 hot0.2 L2 B4 b1 mmpp2",
     0x1.e0df31c787941p+4, 0x1.be5bb77e0716fp+1, 0x1.0e4fa47603cd2p-8},
    {"mesh3x3 hot0.2 L2 B4 b0.5 poisson",
     0x1.6d0a17faebcafp+5, 0x1.8113b9c9a9c2p+0, 0x1.51c5bb871de2p-9},
    {"mesh3x3 hot0.2 L2 B4 b0.5 batch4",
     0x1.6109b5db6898fp+7, 0x1.06c3657ef1192p+7, 0x1.2938ea1742876p-9},
    {"mesh3x3 hot0.2 L2 B4 b0.5 mmpp2",
     0x1.9d9b8dd7f524p+5, 0x1.ac5ed6c7b9987p+2, 0x1.2e3955565f134p-9},
    {"mesh3x3 hot0.2 L4 Binf b1 poisson",
     0x1.ab9fd03513ffep+4, 0x1.8f604be9f0aadp-16, 0x1.500aa5fda054p-7},
    {"mesh3x3 hot0.2 L4 Binf b1 batch4",
     0x1.7c3c17acbb3c6p+6, 0x1.11a92b0e9b6c6p+6, 0x1.4cbdaad0c66fp-7},
    {"mesh3x3 hot0.2 L4 Binf b1 mmpp2",
     0x1.aa782edbd0e0dp+4, 0x1.0edee7372cc82p-13, 0x1.4d2b49676b928p-7},
    {"mesh3x3 hot0.2 L4 Binf b0.5 poisson",
     0x1.43d96d4919f1ep+5, 0x1.31baad86306edp+0, 0x1.6c0bafd503506p-9},
    {"mesh3x3 hot0.2 L4 Binf b0.5 batch4",
     0x1.3435871c535f8p+7, 0x1.c94e2b88fefecp+6, 0x1.58459e258efe2p-9},
    {"mesh3x3 hot0.2 L4 Binf b0.5 mmpp2",
     0x1.6be06db1ee15ep+5, 0x1.71721226927d2p+2, 0x1.5ae54fe5df494p-9},
    {"mesh3x3 hot0.2 L4 B4 b1 poisson",
     0x1.a8f92b3b7d968p+4, 0x1.36c59de8d51cdp-1, 0x1.1f795e873ecbep-8},
    {"mesh3x3 hot0.2 L4 B4 b1 batch4",
     0x1.85c10238a4fbep+6, 0x1.1c9cb087f852bp+6, 0x1.0b21662954a84p-8},
    {"mesh3x3 hot0.2 L4 B4 b1 mmpp2",
     0x1.d9dabfd8c332dp+4, 0x1.aff1a5316ab6cp+1, 0x1.0dc4973ece602p-8},
    {"mesh3x3 hot0.2 L4 B4 b0.5 poisson",
     0x1.699334ae3d464p+5, 0x1.6309716fe3d92p+0, 0x1.3e6145ba1d39ap-9},
    {"mesh3x3 hot0.2 L4 B4 b0.5 batch4",
     0x1.5a6a494b83c16p+7, 0x1.01aa8e6124cc4p+7, 0x1.2a6c3a6c496acp-9},
    {"mesh3x3 hot0.2 L4 B4 b0.5 mmpp2",
     0x1.95c7efa2645b7p+5, 0x1.9b1df49505a81p+2, 0x1.2d0b59b02f7fcp-9},
};

const Golden kGeneralAblations[] = {
    {"bft2 hot0.2 mask0 L1 Binf",
     0x1.89c13af06d42fp+4, 0x1.6204853abcba9p+0, 0x1.661d4f6548eaap-7},
    {"bft2 hot0.2 mask0 L1 B4",
     0x1.e8f8cd0b68afcp+4, 0x1.e5b00171099b8p+0, 0x1.1970a9e57f9dap-7},
    {"bft2 hot0.2 mask0 L4 Binf",
     0x1.cacf2e8425d34p+4, 0x1.2bf330885daa1p-12, 0x1.08f97e6326b94p-6},
    {"bft2 hot0.2 mask0 L4 B4",
     0x1.b27aae458b43bp+4, 0x1.2489c96aa8b1p+0, 0x1.c7f4edd5fe58ep-8},
    {"bft2 hot0.2 mask1 L1 Binf",
     0x1.748f2530bf774p+4, 0x1.4a5cbec74bf1cp+0, 0x1.817a181452ffep-7},
    {"bft2 hot0.2 mask1 L1 B4",
     0x1.cc88e8277c598p+4, 0x1.c174150a55f02p+0, 0x1.309c0d07de7b2p-7},
    {"bft2 hot0.2 mask1 L4 Binf",
     0x1.caded635fa552p+4, 0x1.2c923fb23b96p-12, 0x1.090fca5308c46p-6},
    {"bft2 hot0.2 mask1 L4 B4",
     0x1.ac90f3b6b402dp+4, 0x1.1c9982b0e8e3p+0, 0x1.cba129f374d4cp-8},
    {"bft2 hot0.2 mask2 L1 Binf",
     0x1.781d14ebb889fp+4, 0x1.6307e2ceacd11p+0, 0x1.95629f0a5b9e6p-7},
    {"bft2 hot0.2 mask2 L1 B4",
     0x1.d677194d4f1d5p+4, 0x1.e3c31f68855f5p+0, 0x1.37097bd4513e8p-7},
    {"bft2 hot0.2 mask2 L4 Binf",
     0x1.cc07ec0e4f599p+4, 0x1.37fd24dfe31c1p-12, 0x1.0a9499e2753acp-6},
    {"bft2 hot0.2 mask2 L4 B4",
     0x1.aec9fb855e1bap+4, 0x1.249b3d98e8468p+0, 0x1.d28b89ac9c4f2p-8},
    {"bft2 hot0.2 mask3 L1 Binf",
     0x1.65ce59728396p+4, 0x1.4a3cad0648e3ap+0, 0x1.abae1b046428ep-7},
    {"bft2 hot0.2 mask3 L1 B4",
     0x1.bd27eff73ad48p+4, 0x1.be71aca45ff14p+0, 0x1.4b5a79c605552p-7},
    {"bft2 hot0.2 mask3 L4 Binf",
     0x1.cc0fe4e0076a2p+4, 0x1.38532476dcc77p-12, 0x1.0aa076518434ep-6},
    {"bft2 hot0.2 mask3 L4 B4",
     0x1.a9d38540a5ce6p+4, 0x1.1d5ee5a1562b8p+0, 0x1.d4d66f3cab3b6p-8},
    {"bft2 hot0.2 mask4 L1 Binf",
     0x1.89c13af06d42fp+4, 0x1.6204853abcba9p+0, 0x1.661d4f6548eaap-7},
    {"bft2 hot0.2 mask4 L1 B4",
     0x1.e8f8cd0b68afcp+4, 0x1.e5b00171099b8p+0, 0x1.1970a9e57f9dap-7},
    {"bft2 hot0.2 mask4 L4 Binf",
     0x1.cacf2e8425d34p+4, 0x1.2bf330885daa1p-12, 0x1.08f97e6326b94p-6},
    {"bft2 hot0.2 mask4 L4 B4",
     0x1.b27aae458b43bp+4, 0x1.2489c96aa8b1p+0, 0x1.c7f4edd5fe58ep-8},
    {"bft2 hot0.2 mask5 L1 Binf",
     0x1.71ce6c15223bdp+4, 0x1.3389a16db5071p+0, 0x1.6d0de771dacb8p-7},
    {"bft2 hot0.2 mask5 L1 B4",
     0x1.c86068f5ed7ecp+4, 0x1.9f85b6c37c5bp+0, 0x1.1f71afec6f958p-7},
    {"bft2 hot0.2 mask5 L4 Binf",
     0x1.cadc14bd21e83p+4, 0x1.2c77b7d90d39cp-12, 0x1.090c3781fc0fep-6},
    {"bft2 hot0.2 mask5 L4 B4",
     0x1.ac8256369985cp+4, 0x1.1a97bf3a9c0dbp+0, 0x1.c87473b89917ap-8},
    {"bft2 hot0.2 mask6 L1 Binf",
     0x1.781d14ebb889fp+4, 0x1.6307e2ceacd11p+0, 0x1.95629f0a5b9e6p-7},
    {"bft2 hot0.2 mask6 L1 B4",
     0x1.d677194d4f1d5p+4, 0x1.e3c31f68855f5p+0, 0x1.37097bd4513e8p-7},
    {"bft2 hot0.2 mask6 L4 Binf",
     0x1.cc07ec0e4f599p+4, 0x1.37fd24dfe31c1p-12, 0x1.0a9499e2753acp-6},
    {"bft2 hot0.2 mask6 L4 B4",
     0x1.aec9fb855e1bap+4, 0x1.249b3d98e8468p+0, 0x1.d28b89ac9c4f2p-8},
    {"bft2 hot0.2 mask7 L1 Binf",
     0x1.644fae958f38bp+4, 0x1.3b27709063efep+0, 0x1.9c0258707b7bcp-7},
    {"bft2 hot0.2 mask7 L1 B4",
     0x1.ba8167378c508p+4, 0x1.a57e86ea4f5acp+0, 0x1.3cfbf8c4db16cp-7},
    {"bft2 hot0.2 mask7 L4 Binf",
     0x1.cc0efa838fba3p+4, 0x1.384a0ab3016bap-12, 0x1.0a9f47370f1b2p-6},
    {"bft2 hot0.2 mask7 L4 B4",
     0x1.a9d1e48c75e1bp+4, 0x1.1c33495a09915p+0, 0x1.d2e0c03d7673cp-8},
};

const Golden kClosedFormAblations[] = {
    {"fattree3 mask0 L1",
     0x1.d0409fcd9cfc5p+4, 0x1.3aacadbaf2715p+0, 0x1.ea5508a063f92p-8},
    {"fattree3 mask0 L2",
     0x1.e85f985d9c0a9p+4, 0x1.a4c9a377b6d5dp-4, 0x1.a10e9f72b374p-7},
    {"fattree3 mask1 L1",
     0x1.af9c430f61ffdp+4, 0x1.578d6e0d60271p+0, 0x1.499b5bd7d7ac2p-7},
    {"fattree3 mask1 L2",
     0x1.0496be1af4412p+5, 0x1.8a3c4ba955ae3p-3, 0x1.f711fb7a5c85ep-7},
    {"fattree3 mask2 L1",
     0x1.bbcc4c4070ac1p+4, 0x1.4da254ec443d2p+0, 0x1.27b5010ae386p-7},
    {"fattree3 mask2 L2",
     0x1.ecf095f068ae8p+4, 0x1.d70b953c33067p-4, 0x1.b14e9edcf873ep-7},
    {"fattree3 mask3 L1",
     0x1.9f8626a325b98p+4, 0x1.776eb149f6c0ep+0, 0x1.91b76ca7c4dbep-7},
    {"fattree3 mask3 L2",
     0x1.07e3c703dc0c3p+5, 0x1.bda4539e22411p-3, 0x1.050ed397836e4p-6},
    {"fattree3 mask4 L1",
     0x1.d0409fcd9cfc5p+4, 0x1.3aacadbaf2715p+0, 0x1.ea5508a063f92p-8},
    {"fattree3 mask4 L2",
     0x1.e85f985d9c0a9p+4, 0x1.a4c9a377b6d5dp-4, 0x1.a10e9f72b374p-7},
    {"fattree3 mask5 L1",
     0x1.9c6e3c0ecb802p+4, 0x1.f070b60fa581cp-1, 0x1.0c20d3a5b785ep-7},
    {"fattree3 mask5 L2",
     0x1.ea1b1722ab609p+4, 0x1.d2d21b06883fdp-4, 0x1.b456c984508a8p-7},
    {"fattree3 mask6 L1",
     0x1.bbcc4c4070ac1p+4, 0x1.4da254ec443d2p+0, 0x1.27b5010ae386p-7},
    {"fattree3 mask6 L2",
     0x1.ecf095f068ae8p+4, 0x1.d70b953c33067p-4, 0x1.b14e9edcf873ep-7},
    {"fattree3 mask7 L1",
     0x1.8df824874d434p+4, 0x1.11d219b39a34bp+0, 0x1.4763d54b8972p-7},
    {"fattree3 mask7 L2",
     0x1.f0ea4550506dep+4, 0x1.0cd3d3f568819p-3, 0x1.c7cf7d2bc6aaap-7},
};
// clang-format on

struct Observed {
  std::string tag;
  double latency, inj_wait, saturation_rate;
};

Observed observe(std::string tag, const core::NetworkModel& model) {
  const double sat = model.saturation_rate();
  const core::LatencyEstimate est = model.evaluate(0.5 * sat);
  return {std::move(tag), est.latency, est.inj_wait, sat};
}

/// Apply ablation mask bits (1 multi_server, 2 blocking_correction,
/// 4 erratum_2lambda).
void apply_mask(queueing::AblationOptions& o, int mask) {
  o.multi_server = (mask & 1) != 0;
  o.blocking_correction = (mask & 2) != 0;
  o.erratum_2lambda = (mask & 4) != 0;
}

core::SolveOptions solve_opts() {
  core::SolveOptions o;
  o.worm_flits = 16.0;
  return o;
}

std::string depth_tag(int depth) {
  return depth == util::kInfiniteBufferDepth ? std::string("Binf")
                                              : std::string("B") + std::to_string(depth);
}

std::vector<Observed> extension_grid() {
  const topo::ButterflyFatTree ft(2);
  const topo::Hypercube hc(3);
  const topo::Mesh mesh(3, 3);
  const std::pair<const char*, const topo::Topology*> topos[] = {
      {"bft2", &ft}, {"hc3", &hc}, {"mesh3x3", &mesh}};
  const std::pair<const char*, traffic::TrafficSpec> patterns[] = {
      {"uniform", traffic::TrafficSpec::uniform()},
      {"hot0.2", traffic::TrafficSpec::hotspot(0.2)}};
  const std::pair<const char*, arrivals::ArrivalSpec> processes[] = {
      {"poisson", arrivals::ArrivalSpec::poisson()},
      {"batch4", arrivals::ArrivalSpec::batch(4.0)},
      {"mmpp2", arrivals::ArrivalSpec::mmpp2(0.3, 0.1, 8.0)}};
  std::vector<Observed> out;
  for (const auto& [topo_tag, topo] : topos) {
    for (const auto& [pattern_tag, spec] : patterns) {
      const core::GeneralModel base =
          core::build_traffic_model(*topo, spec, solve_opts());
      for (int lanes : {1, 2, 4}) {
        for (int depth : {util::kInfiniteBufferDepth, 4}) {
          for (double bw : {1.0, 0.5}) {
            for (const auto& [process_tag, process] : processes) {
              core::GeneralModel m = base;
              m.set_uniform_lanes(lanes);
              m.set_uniform_buffers(depth);
              m.scale_bandwidths(bw);  // from unit bandwidths: exactly bw
              m.set_injection_process(process);
              out.push_back(observe(std::string(topo_tag) + " " + pattern_tag +
                                        " L" + std::to_string(lanes) + " " +
                                        depth_tag(depth) + " b" +
                                        (bw == 1.0 ? "1" : "0.5") + " " +
                                        process_tag,
                                    m));
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<Observed> general_ablations() {
  const topo::ButterflyFatTree ft(2);
  const core::GeneralModel base = core::build_traffic_model(
      ft, traffic::TrafficSpec::hotspot(0.2), solve_opts());
  std::vector<Observed> out;
  for (int mask = 0; mask < 8; ++mask) {
    for (int lanes : {1, 4}) {
      for (int depth : {util::kInfiniteBufferDepth, 4}) {
        core::GeneralModel m = base;
        apply_mask(m.opts.ablation, mask);
        m.set_uniform_lanes(lanes);
        m.set_uniform_buffers(depth);
        out.push_back(observe("bft2 hot0.2 mask" + std::to_string(mask) + " L" +
                                  std::to_string(lanes) + " " + depth_tag(depth),
                              m));
      }
    }
  }
  return out;
}

std::vector<Observed> closed_form_ablations() {
  std::vector<Observed> out;
  for (int mask = 0; mask < 8; ++mask) {
    for (int lanes : {1, 2}) {
      core::FatTreeModelOptions fo{.levels = 3, .worm_flits = 16.0};
      apply_mask(fo.ablation, mask);
      fo.lanes = lanes;
      out.push_back(observe("fattree3 mask" + std::to_string(mask) + " L" +
                                std::to_string(lanes),
                            core::FatTreeModel(fo)));
    }
  }
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void print_table(const char* name, const std::vector<Observed>& got) {
  std::printf("const Golden %s[] = {\n", name);
  for (const Observed& o : got) {
    std::printf("    {\"%s\",\n     %a, %a, %a},\n", o.tag.c_str(), o.latency,
                o.inj_wait, o.saturation_rate);
  }
  std::printf("};\n");
}

template <std::size_t N>
void expect_pinned(const char* name, const Golden (&want)[N],
                   const std::vector<Observed>& got) {
  bool ok = got.size() == N;
  EXPECT_EQ(got.size(), N) << name;
  for (std::size_t i = 0; i < N && i < got.size(); ++i) {
    const Golden& w = want[i];
    const Observed& g = got[i];
    const bool row_ok = g.tag == w.tag && same_bits(g.latency, w.latency) &&
                        same_bits(g.inj_wait, w.inj_wait) &&
                        same_bits(g.saturation_rate, w.saturation_rate);
    EXPECT_TRUE(row_ok) << name << " row " << i << " (" << g.tag << "):"
                        << std::hexfloat << " latency " << g.latency << " vs "
                        << w.latency << ", inj_wait " << g.inj_wait << " vs "
                        << w.inj_wait << ", saturation " << g.saturation_rate
                        << " vs " << w.saturation_rate;
    ok = ok && row_ok;
  }
  if (!ok) print_table(name, got);
}

TEST(SolverGolden, ExtensionGridMatchesPinnedBits) {
  expect_pinned("kExtensionGrid", kExtensionGrid, extension_grid());
  expect_pinned("kGeneralAblations", kGeneralAblations, general_ablations());
  expect_pinned("kClosedFormAblations", kClosedFormAblations,
                closed_form_ablations());
}

}  // namespace
}  // namespace wormnet
