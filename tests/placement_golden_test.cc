/**
 * @file
 * Byte-identity guard for the cost placer.
 *
 * The placer's iterated local search accepts a move only when it
 * strictly improves the exact objective, so any change to how moves
 * are *evaluated* (tables, caches, incremental updates) must leave
 * the accepted-move trajectory — and therefore every emitted
 * Program — unchanged.  This suite pins, for each of the 11
 * bit-exact kernels on three fabrics, the FNV-1a-64 fingerprint of
 * the encoded program (little-endian words, the same hash the
 * benchmark driver records) plus the place note's per-phase
 * recurrence IIs, weighted wirelength and improving-move count.
 *
 * A mismatch here means the placer's search changed.  If that is
 * intended (a new objective or move set), re-pin the table and say
 * so; an optimization of move evaluation must never trip it.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "compiler/compiler.h"
#include "isa/encoding.h"

namespace marionette
{
namespace
{

/** The eval fabric with one dead PE off-centre. */
MachineConfig
deadPeFabric()
{
    MachineConfig config = evalFabric();
    config.faults.deadPes = {44};
    return config;
}

/** FNV-1a 64 over the little-endian bytes of @p words. */
std::uint64_t
fingerprint(const std::vector<std::uint32_t> &words)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint32_t word : words)
        for (int byte = 0; byte < 4; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ull;
        }
    return hash;
}

struct Golden
{
    const char *kernel;
    std::uint64_t fingerprint;
    /** Per-phase recurrence IIs, as the place note lists them. */
    const char *iis;
    std::uint64_t wirelength;
    int improvingMoves;
};

/** The text between @p before and @p after in @p note. */
std::string
between(const std::string &note, const std::string &before,
        const std::string &after)
{
    std::size_t at = note.find(before);
    if (at == std::string::npos)
        return {};
    at += before.size();
    std::size_t end = note.find(after, at);
    if (end == std::string::npos)
        return {};
    return note.substr(at, end - at);
}

void
checkFabric(const MachineConfig &config,
            const std::vector<Golden> &table)
{
    const Compiler compiler(config);
    for (const Golden &g : table) {
        SCOPED_TRACE(g.kernel);
        CompileResult r = compiler.compile(g.kernel);
        ASSERT_TRUE(r.ok()) << r.report.toString();
        char hex[17];
        std::snprintf(
            hex, sizeof hex, "%016" PRIx64,
            fingerprint(encodeProgram(r.kernel->program)));
        char want[17];
        std::snprintf(want, sizeof want, "%016" PRIx64,
                      g.fingerprint);
        EXPECT_STREQ(hex, want);

        std::string note;
        for (const CompilerPassNote &n : r.report.notes)
            if (n.pass == "place" &&
                n.message.rfind("cost placer", 0) == 0)
                note = n.message;
        ASSERT_FALSE(note.empty()) << r.report.toString();
        EXPECT_EQ(between(note, "recurrence II ", " cycle(s)"),
                  g.iis);
        EXPECT_EQ(between(note, "weighted wirelength ",
                          " improving move(s)"),
                  std::to_string(g.wirelength) + ", " +
                      std::to_string(g.improvingMoves));
    }
}

TEST(PlacementGolden, EvalFabric)
{
    checkFabric(evalFabric(),
                {
                    {"VI", 0xee4b09a70f1ec057ull, "6 6", 161, 117},
                    {"NW", 0x4048ebaed6a0ada6ull, "12 6", 111, 49},
                    {"HT", 0x85ca9b95f53cd124ull, "3", 44, 38},
                    {"CRC", 0xe7f1844be39fe9d4ull, "1 16", 108, 23},
                    {"ADPCM", 0xfcaa6040d7c331b7ull, "34", 427, 78},
                    {"SCD", 0xa825aba1d982f9c0ull, "40", 506, 169},
                    {"LDPC", 0x4572c35cc1f80356ull, "12", 1087, 742},
                    {"GEMM", 0x301a4595584cbcd8ull, "6", 464, 819},
                    {"CO", 0x9354fba9d1af8ce0ull, "4", 60, 63},
                    {"SI", 0x1cf67dfab310445dull, "1", 4, 83},
                    {"GP", 0x0a5f810564ef853eull, "2", 18, 0},
                });
}

TEST(PlacementGolden, SlowMeshFabric)
{
    checkFabric(slowMeshEvalFabric(),
                {
                    {"VI", 0x57223ed2d7e4440eull, "8 8", 326, 183},
                    {"NW", 0x331a4ae2b619cf9eull, "16 8", 224, 49},
                    {"HT", 0x9966fd6b5c6bea5eull, "4", 88, 60},
                    {"CRC", 0x2c6f286158f715cbull, "1 22", 240, 50},
                    {"ADPCM", 0xe0c24edd97caf42full, "46", 898, 97},
                    {"SCD", 0x55e7374f61227323ull, "56", 988, 153},
                    {"LDPC", 0x218f2ccd63154a29ull, "17", 2292, 836},
                    {"GEMM", 0x6b9a53d0e9b20402ull, "8", 934, 1125},
                    {"CO", 0x26543a8b25062b30ull, "4", 144, 120},
                    {"SI", 0x356ab419534e71caull, "1", 8, 71},
                    {"GP", 0x4563e75a8720e5c7ull, "2", 40, 31},
                });
}

TEST(PlacementGolden, DeadPeFabric)
{
    checkFabric(deadPeFabric(),
                {
                    {"VI", 0x88106be7e69a098cull, "6 6", 169, 109},
                    {"NW", 0xd55582cf2f685bd1ull, "12 6", 112, 39},
                    {"HT", 0x0dcb36e0c59c8466ull, "3", 44, 47},
                    {"CRC", 0xfb74d5bcbbc9e83full, "1 16", 110, 11},
                    {"ADPCM", 0xe15135be3e8d45d5ull, "34", 433, 167},
                    {"SCD", 0x1b3fc185b98fe59aull, "40", 474, 191},
                    {"LDPC", 0x313b679801b272fdull, "12", 1172, 909},
                    {"GEMM", 0xb391e15fc5ba2a13ull, "6", 468, 723},
                    {"CO", 0x5e9433a2a4af377bull, "4", 63, 2},
                    {"SI", 0x78fc2d4ceeae28d6ull, "1", 4, 58},
                    {"GP", 0x0a5f810564ef853eull, "2", 18, 0},
                });
}

} // namespace
} // namespace marionette
