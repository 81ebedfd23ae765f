/**
 * @file
 * Measurement plumbing shared by the perfbench workloads: the two host
 * clocks, the benchmark's own span recorder, snapshots of the public
 * per-layer counters, and the per-run result every workload fills in.
 *
 * Every layer is measured from outside the simulator: spans time the
 * benchmark's own calls into public functions, counters are read from
 * the public stats structs, and simulated cycles per category come
 * from VeilTrace's existing attribution.
 */
#ifndef PERFBENCH_HARNESS_HH_
#define PERFBENCH_HARNESS_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sdk/vm.hh"
#include "trace/trace.hh"

namespace pb {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string outDir; ///< traced runs write spans + VeilTrace here
};

/** Host CPU seconds this process has used (user + system). */
double cpuNow();
/** Host wall seconds on a monotonic clock. */
double wallNow();

/** splitmix64: the benchmark's own input generator (seeded, portable). */
class Gen
{
  public:
    explicit Gen(uint64_t seed) : s_(seed) {}
    uint64_t next();
    uint64_t below(uint64_t bound) { return next() % bound; }

  private:
    uint64_t s_;
};

/** Mix a workload seed with a stream index into an independent seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * In-memory spans around the benchmark's calls into the simulator.
 * Recording is on only in traced runs; closed spans keep their parent
 * so a layer's self time can be taken later.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        uint64_t round = 0;
        int64_t parent = -1;
        double wallStart = 0; ///< seconds since the log was created
        double wallDur = 0;
        double cpuDur = 0;
        uint64_t simStart = 0;
        uint64_t simDur = 0;
    };

    explicit SpanLog(bool on);
    bool on() const { return on_; }

    /** Open a span; returns its id (-1 when recording is off). */
    int64_t begin(const char *name, uint64_t round, uint64_t tsc);
    void end(int64_t id, uint64_t tsc);

    /** Host wall milliseconds / simulated cycles of every @p name span. */
    std::vector<double> hostMs(const std::string &name) const;
    std::vector<double> simCycles(const std::string &name) const;

    bool writeJson(const std::string &path) const;

  private:
    bool on_;
    double t0_;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

/** RAII span on a SpanLog, reading the simulated clock of @p vm. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const char *name, uint64_t round,
               veil::snp::Machine &m)
        : log_(log), m_(m), id_(log.begin(name, round, m.tsc()))
    {
    }
    ~ScopedSpan() { log_.end(id_, m_.tsc()); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    veil::snp::Machine &m_;
    int64_t id_;
};

/** Cumulative public counters of every layer at one instant. */
struct Counters
{
    // snp (MachineStats, software TLB)
    uint64_t tlbHits = 0, tlbMisses = 0, tlbFlushes = 0, tlbShootdowns = 0;
    uint64_t rmpadjusts = 0, pvalidates = 0;
    uint64_t vmEntries = 0, vmExits = 0; ///< VMENTERs, VMGEXITs (all reasons)
    // hv (HvStats)
    uint64_t domainSwitches = 0, hvExits = 0, intrRedirects = 0;
    // kernel (KernelStats)
    uint64_t syscalls = 0, auditRecords = 0, auditRingDrops = 0;
    uint64_t auditBatchFlushes = 0, auditFlushedRecords = 0;
    uint64_t monitorCalls = 0, serviceCalls = 0, enclaveFaults = 0;
    // crypto (process-wide CryptoStats)
    uint64_t sha256Blocks = 0, hmacKeyInits = 0, aesKeySchedules = 0;
    // VeilTrace attribution (zero when tracing is off)
    uint64_t catCycles[veil::trace::kCategoryCount] = {};
    uint64_t tsc = 0;

    Counters &operator+=(const Counters &o);
    Counters operator-(const Counters &o) const;
};

Counters snapshot(veil::sdk::VeilVm &vm);

/**
 * What one workload run hands back. Rounds are the unit of host timing
 * (each is a fixed number of ops); the first windowRounds rounds form
 * the fixed window over which simulated-clock and per-layer figures are
 * taken, so those repeat exactly for a seed however long the run is.
 */
struct Result
{
    std::vector<std::string> errors; ///< check failures (correct = empty)
    uint64_t attempted = 0;
    uint64_t failed = 0;

    double setupCpuS = 0;         ///< process CPU time at the first op
    uint64_t setupSimCycles = 0;  ///< simulated cycles of that set-up
    uint64_t opsPerRound = 0;
    std::vector<double> roundCpuS;     ///< host CPU seconds per round
    std::vector<uint64_t> roundSim;    ///< simulated cycles per round

    uint64_t windowRounds = 0; ///< rounds in the fixed window
    uint64_t windowOps = 0;
    Counters window;           ///< counter deltas over the window
    uint64_t vmsaSlots = 0;    ///< Machine::vmsaCount() at the end
    uint64_t framesHighWater = 0;
    uint64_t traceDropped = 0;
    /// Workload-specific per-layer figures, already in final units.
    std::map<std::string, double> layer;

    void fail(const std::string &what);
};

/**
 * Scope of one round's ops: records its host CPU time and simulated
 * cycles, and, for rounds inside the fixed window, adds the round's
 * counter deltas to Result::window. Counter snapshots are taken outside
 * the CPU-timed interval.
 */
class RoundTimer
{
  public:
    RoundTimer(Result &r, veil::sdk::VeilVm &vm);
    ~RoundTimer();
    RoundTimer(const RoundTimer &) = delete;
    RoundTimer &operator=(const RoundTimer &) = delete;

  private:
    Result &r_;
    veil::sdk::VeilVm &vm_;
    bool inWindow_;
    Counters c0_;
    double cpu0_;
    uint64_t tsc0_;
};

/** Whether another round runs: always inside the window, then until
 *  @p seconds of wall time have passed since @p t0. */
bool moreRounds(const Result &r, double t0, double seconds);

/** Sample quantile by linear interpolation (q in [0,1]). */
double quantile(std::vector<double> v, double q);

/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Quiet VM configuration shared by the workloads. */
veil::sdk::VmConfig baseConfig(size_t mem_mb, uint32_t vcpus, bool trace);

/** Write VeilTrace's Chrome export and cycles-by-category table. */
void writeVeilTrace(const veil::snp::Machine &m, const std::string &dir);

} // namespace pb

#endif // PERFBENCH_HARNESS_HH_
