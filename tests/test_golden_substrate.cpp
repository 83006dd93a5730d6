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
};

// Recorded before resub moved to inline window tables; the two
// area-mapping columns were added before rewrite, refactor and the mapper
// moved to aig::Window and the lazy aig::CutSet.
// clang-format off
const GoldenRow kGolden[] = {
    {"adder", "rs;rsz;rs;rsz", 343, 92, 283.58850000000001, 360.05660000000017, 0x2f550ab0a60241bbULL, 196.26089999999994, 440.8300000000001},
    {"adder", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 280, 63, 299.43210000000045, 327.70999999999992, 0xacf39be923abc503ULL, 137.80890000000005, 443.48000000000013},
    {"arbiter", "rs;rsz;rs;rsz", 425, 31, 273.9525000000005, 146.43330000000003, 0xc2f7486c71355e42ULL, 397.47209999999791, 219.20630000000006},
    {"arbiter", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 423, 31, 353.10899999999833, 148.19999999999999, 0xa53f4e3dec2798a1ULL, 394.05509999999776, 221.38640000000012},
    {"bar", "rs;rsz;rs;rsz", 480, 10, 274.20450000000051, 54.586599999999997, 0xa02909b1c360d993ULL, 232.12799999999913, 65.299999999999997},
    {"bar", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 480, 10, 280.38120000000021, 56.373299999999993, 0x53f3254c5def326bULL, 232.12799999999913, 65.299999999999997},
    {"cavlc", "rs;rsz;rs;rsz", 230, 12, 158.27190000000019, 66.436599999999999, 0xff8de423d301a385ULL, 86.104799999999983, 75.299999999999997},
    {"cavlc", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 162, 10, 105.58020000000003, 53.420000000000002, 0x9f677cd0eb03cf69ULL, 78.436199999999999, 65.480000000000004},
    {"ctrl", "rs;rsz;rs;rsz", 162, 5, 80.145600000000016, 24.32, 0xb0de5c16c7a69271ULL, 75.378300000000024, 32.030000000000001},
    {"ctrl", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 127, 4, 74.756999999999991, 27.023300000000003, 0x6b2134946d17c6d5ULL, 67.089599999999976, 37.353299999999997},
    {"dec", "rs;rsz;rs;rsz", 124, 5, 75.121499999999997, 25.990000000000002, 0xbccca3245fdc90adULL, 79.049700000000087, 33.333300000000001},
    {"dec", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 124, 5, 75.121499999999997, 25.990000000000002, 0xbccca3245fdc90adULL, 79.049700000000087, 33.333300000000001},
    {"div", "rs;rsz;rs;rsz", 618, 147, 767.35049999998898, 634.14300000000026, 0x4855967eefd7ada5ULL, 403.89720000000034, 765.63329999999939},
    {"div", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 431, 121, 476.82599999999758, 574.2965999999999, 0xcd1b7a35c2b80baaULL, 297.38129999999967, 630.95329999999979},
    {"hyp", "rs;rsz;rs;rsz", 819, 96, 1019.0201999999797, 422.19639999999998, 0xfbd1f152bb6a53afULL, 555.13799999999924, 532.62649999999996},
    {"hyp", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 688, 86, 858.26999999998532, 414.71300000000008, 0x9d998db01cccd3c4ULL, 565.70759999999927, 518.98320000000012},
    {"i2c", "rs;rsz;rs;rsz", 354, 11, 154.59870000000015, 49.029999999999994, 0x6d543c9b91f16fc4ULL, 132.94349999999989, 54.419999999999995},
    {"i2c", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 268, 8, 156.09360000000027, 42.369999999999997, 0xeaa3b7c7ba5f24a2ULL, 124.02989999999996, 58.219999999999999},
    {"int2float", "rs;rsz;rs;rsz", 66, 14, 43.311599999999999, 64.196600000000004, 0xc2a53ffd4545cfa7ULL, 36.216300000000004, 68.359999999999999},
    {"int2float", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 54, 11, 44.761800000000001, 59.613299999999995, 0x3037e10db2213024ULL, 34.556400000000025, 70.400000000000006},
    {"log2", "rs;rsz;rs;rsz", 655, 75, 735.02579999999034, 347.28980000000007, 0x8a59b0a4b539710aULL, 449.4828, 420.11330000000015},
    {"log2", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 597, 76, 741.86819999999136, 372.83650000000011, 0xe1970067a6b7b4c6ULL, 450.30359999999996, 424.35000000000008},
    {"max", "rs;rsz;rs;rsz", 366, 96, 353.53559999999874, 376.9933000000002, 0x00d836f92fcc2e1aULL, 202.13039999999944, 462.04000000000013},
    {"max", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 321, 96, 260.46269999999964, 457.76000000000016, 0x75a70cbddd24a0d5ULL, 178.81799999999959, 462.04000000000013},
    {"mem_ctrl", "rs;rsz;rs;rsz", 727, 18, 330.0693, 78.210000000000008, 0x1570ca66d3dec942ULL, 283.49670000000077, 109.95999999999999},
    {"mem_ctrl", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 577, 14, 338.39910000000026, 66.810000000000002, 0xa9e717ef3f20e074ULL, 272.97630000000055, 100.75999999999999},
    {"multiplier", "rs;rsz;rs;rsz", 620, 60, 745.06619999998895, 285.35320000000007, 0xd7e36c2341029cedULL, 471.00510000000003, 348.0766000000001},
    {"multiplier", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 562, 60, 758.85899999998878, 298.30990000000003, 0xcf52e9aa9797bdabULL, 405.94680000000017, 334.53000000000009},
    {"priority", "rs;rsz;rs;rsz", 268, 45, 134.91540000000001, 153.04329999999999, 0xf916187aaef31ca8ULL, 131.17710000000011, 198.2829000000001},
    {"priority", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 164, 30, 129.36600000000013, 147.05000000000001, 0x3f8ebe144cd8df58ULL, 115.63530000000017, 155.88999999999999},
    {"router", "rs;rsz;rs;rsz", 145, 12, 78.543600000000012, 58.68, 0x14037c415487b16fULL, 86.004600000000025, 66.609999999999999},
    {"router", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 124, 10, 99.26549999999996, 54.886599999999994, 0x930001003c1a8420ULL, 74.816400000000016, 69.189999999999998},
    {"sin", "rs;rsz;rs;rsz", 3338, 155, 4084.803599999861, 744.07309999999995, 0x445f90b62f61b26fULL, 3057.6830999998742, 885.94969999999921},
    {"sin", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 2973, 154, 3661.6478999998985, 750.50610000000006, 0xee34348e471c4628ULL, 2409.1427999999255, 971.84969999999953},
    {"sqrt", "rs;rsz;rs;rsz", 386, 96, 460.76159999999857, 390.74980000000011, 0x23d9c9b575a4459dULL, 276.64979999999991, 525.94979999999998},
    {"sqrt", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 360, 88, 419.89049999999918, 406.64660000000003, 0xc815a51c5dbe5c75ULL, 273.59279999999978, 492.56299999999999},
    {"square", "rs;rsz;rs;rsz", 553, 55, 678.03089999999179, 262.53980000000001, 0x2faa9fb437a5cba5ULL, 402.83070000000009, 320.98330000000016},
    {"square", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 501, 55, 642.39179999999271, 273.71000000000004, 0x5d180f3d05e69c8aULL, 351.85950000000008, 324.71000000000015},
    {"voter", "rs;rsz;rs;rsz", 310, 22, 353.45400000000001, 118.86649999999999, 0x90c33811fe30c7c6ULL, 217.99050000000008, 132.81999999999999},
    {"voter", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 256, 23, 265.13010000000048, 125.1832, 0x4864e402d15470aeULL, 216.69180000000017, 141.48999999999998},
    {"c17", "rs;rsz;rs;rsz", 6, 3, 4.4555999999999996, 18.5199, 0xe1dfb4e9b450162eULL, 3.5747999999999998, 21.513300000000001},
    {"c17", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 6, 3, 4.4555999999999996, 18.5199, 0x65008eb068883c2aULL, 3.5747999999999998, 21.513300000000001},
    {"c432", "rs;rsz;rs;rsz", 142, 22, 128.8917000000001, 95.586499999999972, 0x4f5a15bebf2aabb2ULL, 106.72410000000009, 110.71330000000002},
    {"c432", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 117, 18, 121.53659999999992, 86.31989999999999, 0xffd37376b25575d6ULL, 96.151800000000009, 93.676600000000008},
    {"c499", "rs;rsz;rs;rsz", 432, 39, 435.59820000000053, 205.42990000000003, 0x8f866fc704ae32a0ULL, 193.94310000000033, 242.39660000000001},
    {"c499", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 402, 38, 413.4230999999989, 201.37330000000006, 0x0a54b50e0f1f3f76ULL, 190.00320000000022, 239.38660000000004},
    {"c880", "rs;rsz;rs;rsz", 269, 28, 261.6222000000007, 125.37990000000001, 0x0eb6eac9b9de088fULL, 160.65270000000029, 178.88000000000005},
    {"c880", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 246, 24, 227.43270000000044, 118.2433, 0x087c3bdb25b3f53aULL, 162.41910000000021, 131.86330000000001},
    {"c1355", "rs;rsz;rs;rsz", 528, 41, 575.98349999999732, 217.83990000000003, 0x53afa6d0d8f8803aULL, 233.88180000000037, 254.8066},
    {"c1355", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 498, 40, 484.34459999999967, 213.41660000000005, 0x57b36386e94f755eULL, 233.20500000000027, 251.79660000000004},
    {"c1908", "rs;rsz;rs;rsz", 288, 26, 325.3908000000003, 143.60990000000001, 0xc1a0542fac95b50bULL, 147.78840000000019, 161.5333},
    {"c1908", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 274, 25, 255.45510000000061, 140.57329999999999, 0x72bba18b69b866c0ULL, 128.46480000000014, 158.75329999999997},
    {"c2670", "rs;rsz;rs;rsz", 600, 39, 385.80449999999951, 165.5, 0x190413efb0bbac31ULL, 272.45370000000025, 220.95000000000005},
    {"c2670", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 506, 35, 362.18249999999881, 168.75330000000002, 0x320bb8dfcd6199e0ULL, 269.76510000000036, 180.46330000000003},
    {"c3540", "rs;rsz;rs;rsz", 440, 37, 510.44609999999739, 175.01320000000001, 0x01c12fe6ab9c72fdULL, 312.65399999999988, 247.22000000000006},
    {"c3540", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 417, 30, 438.75209999999811, 156.09980000000002, 0xf971e1048e59a652ULL, 312.35009999999983, 186.40989999999999},
    {"c5315", "rs;rsz;rs;rsz", 759, 52, 823.81919999998968, 216.21330000000003, 0x384bf43f23d5273fULL, 395.29139999999865, 267.15999999999991},
    {"c5315", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 691, 54, 677.74439999999231, 260.0732999999999, 0x79ced1708d366317ULL, 399.03569999999883, 267.15999999999991},
    {"c6288", "rs;rsz;rs;rsz", 1016, 80, 1222.0895999999725, 376.5064000000001, 0x9d4b9e1ec8312a6fULL, 769.6058999999949, 453.39660000000021},
    {"c6288", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 924, 80, 1268.4302999999736, 395.24990000000014, 0x79d68a85e79a38ceULL, 663.10799999999756, 440.69000000000017},
    {"c7552", "rs;rsz;rs;rsz", 426, 51, 422.12129999999792, 209.00330000000005, 0x38dabadac917234bULL, 242.45820000000006, 247.09999999999991},
    {"c7552", "b;rw;rs;rf;rsz;rwz;b;rfz;rs", 378, 37, 453.10229999999757, 196.25, 0x1539ce67c02e9805ULL, 239.40240000000009, 251.01999999999992},
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
    const auto mapped = techmap::tech_map(g, lib);
    techmap::MapParams area_params;
    area_params.objective = techmap::MapParams::Objective::kArea;
    const auto area_mapped = techmap::tech_map(g, lib, area_params);
    const GoldenRow actual{circuit.c_str(),    seq,
                           g.num_ands(),       g.depth(),
                           mapped.area_um2,    mapped.delay_ps,
                           fnv1a(aiger.str()), area_mapped.area_um2,
                           area_mapped.delay_ps};
    char line[320];
    std::snprintf(line, sizeof line,
                  "    {\"%s\", \"%s\", %zu, %d, %.17g, %.17g, "
                  "0x%016llxULL, %.17g, %.17g},",
                  actual.circuit, actual.sequence, actual.num_ands,
                  actual.depth, actual.area_um2, actual.delay_ps,
                  static_cast<unsigned long long>(actual.aiger_fnv1a),
                  actual.area_map_area_um2, actual.area_map_delay_ps);
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
