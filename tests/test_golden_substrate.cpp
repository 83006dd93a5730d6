// Golden fixture of the synthesis substrate: every generator run through a
// fixed set of sequences must give the same AIG, byte for byte, as when
// the table below was recorded. A speed-up of a pass that shifts any
// accepted move shows up here as a changed hash, size or QoR, so it cannot
// silently change a dataset label.
//
// To re-record after an intended change of results, run the test: every
// mismatching case prints its current row in the table's format.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "clo/aig/io.hpp"
#include "clo/circuits/generators.hpp"
#include "clo/opt/transform.hpp"
#include "clo/techmap/tech_map.hpp"

namespace {

using namespace clo;

/// Resub-heavy, and a mixed sequence over the whole alphabet.
const char* const kSequences[] = {
    "rs;rsz;rs;rsz",
    "b;rw;rs;rf;rsz;rwz;b;rfz;rs",
};

struct GoldenRow {
  const char* circuit;
  const char* sequence;
  std::size_t num_ands;
  int depth;
  double area_um2;
  double delay_ps;
  std::uint64_t aiger_fnv1a;
  /// The area-oriented mapping (the evaluator maps every label both ways).
  double area_map_area_um2;
  double area_map_delay_ps;
  /// The cover itself: cell count and write_verilog text, both objectives.
  int num_cells;
  int area_map_num_cells;
  std::uint64_t verilog_fnv1a;
  std::uint64_t area_map_verilog_fnv1a;
};

// Recorded before resub moved to inline window tables; the two
// area-mapping columns were added before rewrite, refactor and the mapper
// moved to aig::Window and the lazy aig::CutSet; the four cover columns
// before the mapper matched each cut once and kept its cover as integers.
// clang-format off
const GoldenRow kGolden[] = {
    {"adder", "rs;rsz;rs;rsz", 343, 92, 283.58850000000001, 360.05660000000017, 0x2f550ab0a60241bbULL, 196.26089999999994, 440.8300000000001, 343, 186, 0x3f031115d7f0fb43ULL, 0x4341e8d222b43110ULL},
    {"adder", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 280, 63, 299.43210000000045, 327.70999999999992, 0xacf39be923abc503ULL, 137.80890000000005, 443.48000000000013, 351, 124, 0x291c4e5978814449ULL, 0x3b09bf4cbd44c45cULL},
    {"arbiter", "rs;rsz;rs;rsz", 425, 31, 273.9525000000005, 146.43330000000003, 0xc2f7486c71355e42ULL, 397.47209999999791, 219.20630000000006, 326, 448, 0x0c3728d835cf858cULL, 0xef8752dcf4ec166cULL},
    {"arbiter", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 423, 31, 353.10899999999833, 148.19999999999999, 0xa53f4e3dec2798a1ULL, 394.05509999999776, 221.38640000000012, 434, 433, 0xc55ded57ce851dfaULL, 0x3670e1245567b48aULL},
    {"bar", "rs;rsz;rs;rsz", 480, 10, 274.20450000000051, 54.586599999999997, 0xa02909b1c360d993ULL, 232.12799999999913, 65.299999999999997, 357, 160, 0x806d0851fa88b3d1ULL, 0x1dec4d4befc4e09eULL},
    {"bar", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 480, 10, 280.38120000000021, 56.373299999999993, 0x53f3254c5def326bULL, 232.12799999999913, 65.299999999999997, 324, 160, 0xb5d47d0cdcdc7cd6ULL, 0x2fde3c3515fdba42ULL},
    {"cavlc", "rs;rsz;rs;rsz", 230, 12, 158.27190000000019, 66.436599999999999, 0xff8de423d301a385ULL, 86.104799999999983, 75.299999999999997, 190, 93, 0xaa41de3d04bb2aaaULL, 0x9e3b2177f41fef5cULL},
    {"cavlc", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 162, 10, 105.58020000000003, 53.420000000000002, 0x9f677cd0eb03cf69ULL, 78.436199999999999, 65.480000000000004, 131, 86, 0x3a2f85b27ceb4797ULL, 0x75d68cc833a52d74ULL},
    {"ctrl", "rs;rsz;rs;rsz", 162, 5, 80.145600000000016, 24.32, 0xb0de5c16c7a69271ULL, 75.378300000000024, 32.030000000000001, 101, 99, 0x15f30dd4cb992efaULL, 0xac73ce337d567548ULL},
    {"ctrl", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 127, 4, 74.756999999999991, 27.023300000000003, 0x6b2134946d17c6d5ULL, 67.089599999999976, 37.353299999999997, 97, 88, 0x4666b669977e48ccULL, 0x2eafa90cc7cbe311ULL},
    {"dec", "rs;rsz;rs;rsz", 124, 5, 75.121499999999997, 25.990000000000002, 0xbccca3245fdc90adULL, 79.049700000000087, 33.333300000000001, 90, 125, 0xa258f30dcf6b6b8aULL, 0xe2d308d659c67154ULL},
    {"dec", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 124, 5, 75.121499999999997, 25.990000000000002, 0xbccca3245fdc90adULL, 79.049700000000087, 33.333300000000001, 90, 125, 0xa258f30dcf6b6b8aULL, 0xe2d308d659c67154ULL},
    {"div", "rs;rsz;rs;rsz", 618, 147, 767.35049999998898, 634.14300000000026, 0x4855967eefd7ada5ULL, 403.89720000000034, 765.63329999999939, 930, 331, 0x4a96c34746cf5a81ULL, 0xb2a939ac628ed2f9ULL},
    {"div", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 431, 121, 476.82599999999758, 574.2965999999999, 0xcd1b7a35c2b80baaULL, 297.38129999999967, 630.95329999999979, 557, 245, 0xa84c7a23a4505375ULL, 0x76b18f9d22864097ULL},
    {"hyp", "rs;rsz;rs;rsz", 819, 96, 1019.0201999999797, 422.19639999999998, 0xfbd1f152bb6a53afULL, 555.13799999999924, 532.62649999999996, 1237, 548, 0x90e64454859875a5ULL, 0xf5ae8ed201ae06c2ULL},
    {"hyp", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 688, 86, 858.26999999998532, 414.71300000000008, 0x9d998db01cccd3c4ULL, 565.70759999999927, 518.98320000000012, 1033, 588, 0x0a2111d87dfb1fddULL, 0xc509eab34964d2cfULL},
    {"i2c", "rs;rsz;rs;rsz", 354, 11, 154.59870000000015, 49.029999999999994, 0x6d543c9b91f16fc4ULL, 132.94349999999989, 54.419999999999995, 182, 149, 0x8da8d09afd429b59ULL, 0x9e1b913034dc75dfULL},
    {"i2c", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 268, 8, 156.09360000000027, 42.369999999999997, 0xeaa3b7c7ba5f24a2ULL, 124.02989999999996, 58.219999999999999, 205, 148, 0x30c6e9a6310d12aaULL, 0x40460afdc28dbb35ULL},
    {"int2float", "rs;rsz;rs;rsz", 66, 14, 43.311599999999999, 64.196600000000004, 0xc2a53ffd4545cfa7ULL, 36.216300000000004, 68.359999999999999, 57, 40, 0x196641fc1f52e221ULL, 0xf813ec8c178b4a89ULL},
    {"int2float", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 54, 11, 44.761800000000001, 59.613299999999995, 0x3037e10db2213024ULL, 34.556400000000025, 70.400000000000006, 60, 45, 0x422fb2c8c715aa7cULL, 0x04265417ecc64d60ULL},
    {"log2", "rs;rsz;rs;rsz", 655, 75, 735.02579999999034, 347.28980000000007, 0x8a59b0a4b539710aULL, 449.4828, 420.11330000000015, 889, 410, 0x60df008c6fcbefbbULL, 0x57f1dec930bedcafULL},
    {"log2", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 597, 76, 741.86819999999136, 372.83650000000011, 0xe1970067a6b7b4c6ULL, 450.30359999999996, 424.35000000000008, 870, 440, 0x4c47cd8e6e0da1c4ULL, 0xdb94e461510980c0ULL},
    {"max", "rs;rsz;rs;rsz", 366, 96, 353.53559999999874, 376.9933000000002, 0x00d836f92fcc2e1aULL, 202.13039999999944, 462.04000000000013, 474, 191, 0x88e4cfebd735f297ULL, 0x100529cf157f1994ULL},
    {"max", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 321, 96, 260.46269999999964, 457.76000000000016, 0x75a70cbddd24a0d5ULL, 178.81799999999959, 462.04000000000013, 264, 159, 0x5adfa461dfcd12b0ULL, 0xec355ab6263d38f3ULL},
    {"mem_ctrl", "rs;rsz;rs;rsz", 727, 18, 330.0693, 78.210000000000008, 0x1570ca66d3dec942ULL, 283.49670000000077, 109.95999999999999, 386, 317, 0x597b59d69ea22d2eULL, 0x182a263294a9e870ULL},
    {"mem_ctrl", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 577, 14, 338.39910000000026, 66.810000000000002, 0xa9e717ef3f20e074ULL, 272.97630000000055, 100.75999999999999, 428, 322, 0x57d686093309761bULL, 0x7cdd5e01b9ffeb98ULL},
    {"multiplier", "rs;rsz;rs;rsz", 620, 60, 745.06619999998895, 285.35320000000007, 0xd7e36c2341029cedULL, 471.00510000000003, 348.0766000000001, 917, 468, 0xfa8ff70b244caf93ULL, 0xd9324be81ac17f1eULL},
    {"multiplier", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 562, 60, 758.85899999998878, 298.30990000000003, 0xcf52e9aa9797bdabULL, 405.94680000000017, 334.53000000000009, 890, 396, 0x842a879d217004bbULL, 0xfcab5236f9f84500ULL},
    {"priority", "rs;rsz;rs;rsz", 268, 45, 134.91540000000001, 153.04329999999999, 0xf916187aaef31ca8ULL, 131.17710000000011, 198.2829000000001, 163, 186, 0xc131e3013d609b44ULL, 0xa4ccb30613d422b2ULL},
    {"priority", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 164, 30, 129.36600000000013, 147.05000000000001, 0x3f8ebe144cd8df58ULL, 115.63530000000017, 155.88999999999999, 173, 167, 0x176cef8475ca4d0aULL, 0xf89cea7181749bceULL},
    {"router", "rs;rsz;rs;rsz", 145, 12, 78.543600000000012, 58.68, 0x14037c415487b16fULL, 86.004600000000025, 66.609999999999999, 94, 94, 0xce85147dbf7a0d39ULL, 0xcb35ea424a8d8b9dULL},
    {"router", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 124, 10, 99.26549999999996, 54.886599999999994, 0x930001003c1a8420ULL, 74.816400000000016, 69.189999999999998, 129, 88, 0x682d2065b2fa91d5ULL, 0xe882b9e5a3aa3ea9ULL},
    {"sin", "rs;rsz;rs;rsz", 3338, 155, 4084.803599999861, 744.07309999999995, 0x445f90b62f61b26fULL, 3057.6830999998742, 885.94969999999921, 5088, 3273, 0x09383cf6f0e6fa05ULL, 0xd08412ce0c582664ULL},
    {"sin", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 2973, 154, 3661.6478999998985, 750.50610000000006, 0xee34348e471c4628ULL, 2409.1427999999255, 971.84969999999953, 4356, 2586, 0xb36b18bdd108fddaULL, 0x330dce34e14bbb52ULL},
    {"sqrt", "rs;rsz;rs;rsz", 386, 96, 460.76159999999857, 390.74980000000011, 0x23d9c9b575a4459dULL, 276.64979999999991, 525.94979999999998, 550, 266, 0x3ff5c9a6a7c37db0ULL, 0xf8710d33d9a2a749ULL},
    {"sqrt", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 360, 88, 419.89049999999918, 406.64660000000003, 0xc815a51c5dbe5c75ULL, 273.59279999999978, 492.56299999999999, 489, 263, 0xcf4c7d19bcd919d7ULL, 0x76b3e85166bdab52ULL},
    {"square", "rs;rsz;rs;rsz", 553, 55, 678.03089999999179, 262.53980000000001, 0x2faa9fb437a5cba5ULL, 402.83070000000009, 320.98330000000016, 827, 382, 0x387085e8f0ba17baULL, 0x0308396cf6cd22daULL},
    {"square", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 501, 55, 642.39179999999271, 273.71000000000004, 0x5d180f3d05e69c8aULL, 351.85950000000008, 324.71000000000015, 762, 340, 0x00df20319c17932eULL, 0x6d5c15be9fb9e89dULL},
    {"voter", "rs;rsz;rs;rsz", 310, 22, 353.45400000000001, 118.86649999999999, 0x90c33811fe30c7c6ULL, 217.99050000000008, 132.81999999999999, 426, 206, 0xb846f4bd48c81ac8ULL, 0x25c3376c49d07951ULL},
    {"voter", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 256, 23, 265.13010000000048, 125.1832, 0x4864e402d15470aeULL, 216.69180000000017, 141.48999999999998, 318, 227, 0x56c6cd17387adcb5ULL, 0xff139e4ebdb90bd9ULL},
    {"c17", "rs;rsz;rs;rsz", 6, 3, 4.4555999999999996, 18.5199, 0xe1dfb4e9b450162eULL, 3.5747999999999998, 21.513300000000001, 7, 5, 0xc0ab95606224e2daULL, 0x4ea2560567f4ba06ULL},
    {"c17", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 6, 3, 4.4555999999999996, 18.5199, 0x65008eb068883c2aULL, 3.5747999999999998, 21.513300000000001, 7, 5, 0xab11cc9543165424ULL, 0x27d1a14c1ff85a0fULL},
    {"c432", "rs;rsz;rs;rsz", 142, 22, 128.8917000000001, 95.586499999999972, 0x4f5a15bebf2aabb2ULL, 106.72410000000009, 110.71330000000002, 163, 118, 0xf200b673a41ee462ULL, 0xcee2275d7d4f2cc2ULL},
    {"c432", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 117, 18, 121.53659999999992, 86.31989999999999, 0xffd37376b25575d6ULL, 96.151800000000009, 93.676600000000008, 152, 118, 0xf5c7ffc68b29bec1ULL, 0xbd1f7c3d0494adb6ULL},
    {"c499", "rs;rsz;rs;rsz", 432, 39, 435.59820000000053, 205.42990000000003, 0x8f866fc704ae32a0ULL, 193.94310000000033, 242.39660000000001, 520, 181, 0x768800dc61361527ULL, 0xbbd703ad47a14bfeULL},
    {"c499", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 402, 38, 413.4230999999989, 201.37330000000006, 0x0a54b50e0f1f3f76ULL, 190.00320000000022, 239.38660000000004, 498, 186, 0x2ffc556cc8ea0993ULL, 0xee396044049cd390ULL},
    {"c880", "rs;rsz;rs;rsz", 269, 28, 261.6222000000007, 125.37990000000001, 0x0eb6eac9b9de088fULL, 160.65270000000029, 178.88000000000005, 306, 176, 0x1762bd4d9f659bc7ULL, 0x36f7dc59ec1f8bfbULL},
    {"c880", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 246, 24, 227.43270000000044, 118.2433, 0x087c3bdb25b3f53aULL, 162.41910000000021, 131.86330000000001, 270, 198, 0xec7e55e5b97c7228ULL, 0xd14837af70ddcdd1ULL},
    {"c1355", "rs;rsz;rs;rsz", 528, 41, 575.98349999999732, 217.83990000000003, 0x53afa6d0d8f8803aULL, 233.88180000000037, 254.8066, 693, 215, 0x1e5a7a740a23109fULL, 0x521dc23b131f0474ULL},
    {"c1355", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 498, 40, 484.34459999999967, 213.41660000000005, 0x57b36386e94f755eULL, 233.20500000000027, 251.79660000000004, 585, 222, 0xa1de4a3b6a54300fULL, 0x3a9241bf04d653ccULL},
    {"c1908", "rs;rsz;rs;rsz", 288, 26, 325.3908000000003, 143.60990000000001, 0xc1a0542fac95b50bULL, 147.78840000000019, 161.5333, 408, 131, 0x09edec7c85cfe32dULL, 0x8f32cf3ac0d96767ULL},
    {"c1908", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 274, 25, 255.45510000000061, 140.57329999999999, 0x72bba18b69b866c0ULL, 128.46480000000014, 158.75329999999997, 311, 120, 0x7fbf13b5388b0922ULL, 0x93657f92919ce7e1ULL},
    {"c2670", "rs;rsz;rs;rsz", 600, 39, 385.80449999999951, 165.5, 0x190413efb0bbac31ULL, 272.45370000000025, 220.95000000000005, 442, 293, 0x55ec5a767f5523b9ULL, 0xd398863bf808c38eULL},
    {"c2670", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 506, 35, 362.18249999999881, 168.75330000000002, 0x320bb8dfcd6199e0ULL, 269.76510000000036, 180.46330000000003, 431, 324, 0x33de4f2ba8e64f3cULL, 0xe9cdd3c3ffbfc3adULL},
    {"c3540", "rs;rsz;rs;rsz", 440, 37, 510.44609999999739, 175.01320000000001, 0x01c12fe6ab9c72fdULL, 312.65399999999988, 247.22000000000006, 607, 334, 0x9e1c159904673dddULL, 0x4236d6b395b67000ULL},
    {"c3540", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 417, 30, 438.75209999999811, 156.09980000000002, 0xf971e1048e59a652ULL, 312.35009999999983, 186.40989999999999, 520, 355, 0x8812629faccaac19ULL, 0x083f669f5c997981ULL},
    {"c5315", "rs;rsz;rs;rsz", 759, 52, 823.81919999998968, 216.21330000000003, 0x384bf43f23d5273fULL, 395.29139999999865, 267.15999999999991, 976, 396, 0x3c250992cc9cd066ULL, 0x122813b2ec8094a5ULL},
    {"c5315", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 691, 54, 677.74439999999231, 260.0732999999999, 0x79ced1708d366317ULL, 399.03569999999883, 267.15999999999991, 769, 428, 0x8ffe2c1aa2108fedULL, 0x774f8afddd5c292cULL},
    {"c6288", "rs;rsz;rs;rsz", 1016, 80, 1222.0895999999725, 376.5064000000001, 0x9d4b9e1ec8312a6fULL, 769.6058999999949, 453.39660000000021, 1501, 743, 0xf43f5eaae9e8c2aaULL, 0xc7a0abd39c48bcf5ULL},
    {"c6288", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 924, 80, 1268.4302999999736, 395.24990000000014, 0x79d68a85e79a38ceULL, 663.10799999999756, 440.69000000000017, 1478, 632, 0x4e7d6db7169739a6ULL, 0x87ce75c54cf2de30ULL},
    {"c7552", "rs;rsz;rs;rsz", 426, 51, 422.12129999999792, 209.00330000000005, 0x38dabadac917234bULL, 242.45820000000006, 247.09999999999991, 508, 208, 0x00aaa9738eb72d88ULL, 0x274d22c9b026be62ULL},
    {"c7552", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 378, 37, 453.10229999999757, 196.25, 0x1539ce67c02e9805ULL, 239.40240000000009, 251.01999999999992, 551, 208, 0x6e9184b9e03e4b4eULL, 0x9b8480468b8ce29eULL},
};
// clang-format on

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t verilog_fnv1a(const techmap::MappingResult& r,
                            const techmap::CellLibrary& lib,
                            const aig::Aig& g) {
  std::ostringstream os;
  techmap::write_verilog(r, lib, g, os);
  return fnv1a(os.str());
}

const GoldenRow* find_row(const std::string& circuit, const std::string& seq) {
  for (const GoldenRow& row : kGolden) {
    if (circuit == row.circuit && seq == row.sequence) return &row;
  }
  return nullptr;
}

class GoldenSubstrate : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenSubstrate, MatchesRecordedTable) {
  const std::string circuit = GetParam();
  const auto lib = techmap::CellLibrary::asap7();
  for (const char* seq : kSequences) {
    aig::Aig g = circuits::make_benchmark(circuit);
    opt::run_sequence(g, opt::parse_sequence(seq));
    std::ostringstream aiger;
    aig::write_aiger_binary(g, aiger);
    techmap::MapParams delay_params;
    const auto mapped = techmap::tech_map(g, lib, delay_params);
    techmap::MapParams area_params;
    area_params.objective = techmap::MapParams::Objective::kArea;
    const auto area_mapped = techmap::tech_map(g, lib, area_params);
    const GoldenRow actual{circuit.c_str(),
                           seq,
                           g.num_ands(),
                           g.depth(),
                           mapped.area_um2,
                           mapped.delay_ps,
                           fnv1a(aiger.str()),
                           area_mapped.area_um2,
                           area_mapped.delay_ps,
                           mapped.num_cells,
                           area_mapped.num_cells,
                           verilog_fnv1a(mapped, lib, g),
                           verilog_fnv1a(area_mapped, lib, g)};
    char line[400];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", \"%s\", %zu, %d, %.17g, %.17g, "
                  "0x%016llxULL, %.17g, %.17g, %d, %d, 0x%016llxULL, "
                  "0x%016llxULL},",
                  actual.circuit, actual.sequence, actual.num_ands,
                  actual.depth, actual.area_um2, actual.delay_ps,
                  static_cast<unsigned long long>(actual.aiger_fnv1a),
                  actual.area_map_area_um2, actual.area_map_delay_ps,
                  actual.num_cells, actual.area_map_num_cells,
                  static_cast<unsigned long long>(actual.verilog_fnv1a),
                  static_cast<unsigned long long>(
                      actual.area_map_verilog_fnv1a));
    const GoldenRow* expected = find_row(circuit, seq);
    if (expected == nullptr) {
      ADD_FAILURE() << "no recorded row; current:\n" << line;
      continue;
    }
    EXPECT_EQ(actual.num_ands, expected->num_ands) << line;
    EXPECT_EQ(actual.depth, expected->depth) << line;
    EXPECT_EQ(actual.area_um2, expected->area_um2) << line;
    EXPECT_EQ(actual.delay_ps, expected->delay_ps) << line;
    EXPECT_EQ(actual.aiger_fnv1a, expected->aiger_fnv1a) << line;
    EXPECT_EQ(actual.area_map_area_um2, expected->area_map_area_um2) << line;
    EXPECT_EQ(actual.area_map_delay_ps, expected->area_map_delay_ps) << line;
    EXPECT_EQ(actual.num_cells, expected->num_cells) << line;
    EXPECT_EQ(actual.area_map_num_cells, expected->area_map_num_cells)
        << line;
    EXPECT_EQ(actual.verilog_fnv1a, expected->verilog_fnv1a) << line;
    EXPECT_EQ(actual.area_map_verilog_fnv1a, expected->area_map_verilog_fnv1a)
        << line;
  }
}

std::vector<std::string> all_circuits() {
  std::vector<std::string> names;
  for (const auto& info : circuits::benchmark_catalog()) {
    names.push_back(info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GoldenSubstrate, ::testing::ValuesIn(all_circuits()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(GoldenSubstrate, TableCoversEveryGeneratorAndSequence) {
  for (const std::string& circuit : all_circuits()) {
    for (const char* seq : kSequences) {
      EXPECT_NE(find_row(circuit, seq), nullptr) << circuit << " / " << seq;
    }
  }
  EXPECT_EQ(std::size(kGolden), all_circuits().size() * std::size(kSequences));
}

}  // namespace
