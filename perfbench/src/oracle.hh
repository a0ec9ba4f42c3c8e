/**
 * @file
 * Correctness oracle of the end-to-end benchmark. Every job's rows
 * are compared with a cold, store-less SweepSession run of the same
 * request, computed once per invocation outside timing. Rows compare
 * by a digest over the raw IEEE bits of every reported double,
 * which is exactly the information a hex-float dump carries, so
 * "digests equal" means "hex-float rows identical". Service jobs,
 * which only see the formatted table, compare that table byte for
 * byte with the oracle's.
 */

#ifndef PERFBENCH_ORACLE_HH
#define PERFBENCH_ORACLE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/sweep.hh"

namespace perfbench {

/** Digest of one scenario row: every field the sweep reports. */
uint64_t rowDigest(const gpusimpow::sim::ScenarioResult &row);

/** Simulated work of one request's rows: every timed run of the
 *  request does the same, because its rows are checked identical. */
struct RowStats
{
    double rows = 0, cycles = 0, issued_insts = 0;
    double variant_intervals = 0, thermal_iters = 0,
           thermal_solves = 0;

    void add(const RowStats &o);
};

/** What one request must produce. */
struct JobOracle
{
    std::vector<uint64_t> digests;
    /** SweepResult::formatTable() of the oracle run. */
    std::string table;
    RowStats stats;
};

JobOracle makeOracle(const gpusimpow::sim::SweepResult &result);

/**
 * Text form of a plan's oracles, so the timed run can live in a
 * fresh process whose peak memory the oracle run does not inflate.
 * readOracles throws std::runtime_error on a malformed file.
 */
void writeOracles(std::ostream &out, const std::vector<JobOracle> &o);
std::vector<JobOracle> readOracles(std::istream &in);

/**
 * Compare a job's rows with its oracle. Returns "" when every row
 * is bit-identical and verified, else the first problem found.
 */
std::string checkRows(const gpusimpow::sim::SweepResult &result,
                      const JobOracle &oracle);

/** Compare a service job's table with the oracle's ("" when equal). */
std::string checkTable(const std::string &table,
                       const JobOracle &oracle);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_HH
