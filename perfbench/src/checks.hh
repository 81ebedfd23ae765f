/**
 * @file
 * The benchmark's output checks, kept as pure functions so the
 * self-test (--self-test) can feed each of them a corrupted copy of a
 * real output and see it fail. Each returns an empty string when the
 * output is correct and a one-line reason otherwise.
 */
#ifndef PERFBENCH_CHECKS_HH_
#define PERFBENCH_CHECKS_HH_

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/** What the benchmark knows about one syscall it issued itself. */
struct ExpectedRecord
{
    uint32_t sysno = 0;
    int pid = 0;
    uint64_t a0 = 0;
    uint64_t a2 = 0;
    bool checkA2 = false; ///< length argument of read/write
};

/**
 * A fetched round of VeilS-LOG records against the audited syscalls
 * the benchmark issued: same count, same order, same syscall, pid and
 * arguments, and sequence numbers continuing gap-free from @p next_seq
 * (advanced past the round on success).
 */
std::string checkAuditRound(const std::vector<ExpectedRecord> &expected,
                            const std::vector<std::string> &got,
                            uint64_t &next_seq);

/** Sequence numbers of stored records continue gap-free. */
std::string checkSeqRun(const std::vector<std::string> &records,
                        uint64_t &next_seq);

/** A served HTTP response against the document the benchmark wrote. */
std::string checkResponse(const std::string &expected_body,
                          const std::string &response);

/** Completed enclave calls against the sum of the per-session draws. */
std::string checkCallTotal(uint64_t expected_sum, uint64_t completed);

/** Frames in use return to their pre-fleet level after release. */
std::string checkFramesReturned(uint64_t before, uint64_t after);

} // namespace pb

#endif // PERFBENCH_CHECKS_HH_
