/**
 * @file
 * The three perfbench workloads. Each boots its own CVM(s) in this
 * process, runs whole rounds of ops until the run's time is up, checks
 * every output against values the benchmark computed itself, and fills
 * in a Result. A Samples struct, when given, receives one real output
 * of each checked kind for the self-test.
 */
#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include "checks.hh"
#include "harness.hh"
#include "sdk/remote.hh"

namespace pb {

/** Real outputs captured for the self-test of the checks. */
struct Samples
{
    std::vector<ExpectedRecord> auditExpected;
    std::vector<std::string> auditFetched;
    uint64_t auditSeq = 0; ///< first sequence number of that round
    std::string httpBody;
    std::string httpResponse;
    uint64_t fleetCallSum = 0;
    uint64_t fleetCallsCompleted = 0;
    uint64_t framesBefore = 0;
    uint64_t framesAfter = 0;
};

Result runAuditAttest(const Options &o, SpanLog &spans, Samples *samples);
Result runEnclaveFleet(const Options &o, SpanLog &spans, Samples *samples);
Result runShieldedHttpd(const Options &o, SpanLog &spans, Samples *samples);

/**
 * Query VeilS-LOG's Stats over a sealed session and store the records
 * it holds in total (veil.log.records_total) and its drop count
 * (veil.log.store_drops) in r.layer; false if the query failed.
 */
bool logStatsQuery(veil::sdk::RemoteUser &u, veil::kern::Kernel &k,
                   Result &r);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH_
