/**
 * @file
 * enclave-fleet: VeilFleet copy-on-write clone sessions (DESIGN.md §13)
 * on a 2-VCPU CVM, single-threaded.
 *
 * A round boots a fresh CVM, seals the default-geometry template, runs
 * kSessions Zipf-mixed clone sessions through FleetManager::run and
 * releases the template. One op is one completed session. Each round
 * gets its own CVM because enclave VMSA slots are never retired: in a
 * shared CVM every round would run slower and hold more memory than
 * the one before, so a run's figures would depend on how many rounds
 * the host managed. The first round's boot and seal are the set-up;
 * later rounds' boots and seals are not timed.
 */
#include "fleet/fleet.hh"
#include "workloads.hh"

namespace pb {

using namespace veil;
using namespace veil::sdk;
using kern::Kernel;
using kern::Process;

namespace {

constexpr uint32_t kSessions = 48;
constexpr uint64_t kWindowRounds = 16;
constexpr size_t kMemMb = 128;
/// Calls per round: the Zipf mean over [1, 8] at skew 1.2 is 2.655
/// calls a session, so 48 sessions average 127.4.
constexpr uint64_t kCallsPerRound = 127;
constexpr uint64_t kSeedTries = 100'000;

/**
 * The round's fleet seed: the first seed of the round's seeded stream
 * whose Zipf draws total kCallsPerRound calls (0 if none does). Which
 * sessions run long stays seeded, but every round makes the same
 * number of enclave calls, so sim_cycles_per_op measures the code
 * rather than how long a seed's draws happen to be.
 */
uint64_t
roundSeed(VeilVm &vm, fleet::FleetConfig fc, uint64_t seed, uint64_t round)
{
    for (uint64_t j = 0; j < kSeedTries; ++j) {
        fc.seed = mixSeed(mixSeed(seed, round), j);
        fleet::FleetManager probe(vm, fc);
        uint64_t calls = 0;
        for (uint32_t i = 0; i < fc.sessions; ++i)
            calls += probe.callsFor(i);
        if (calls == kCallsPerRound)
            return fc.seed;
    }
    return 0;
}

} // namespace

Result
runEnclaveFleet(const Options &o, SpanLog &spans, Samples *samples)
{
    Result r;
    r.opsPerRound = kSessions;
    r.windowRounds = kWindowRounds;

    std::vector<double> clone_cycles;
    uint64_t steals = 0, working_set = 0;
    double t0 = 0;
    for (uint64_t round = 0; round == 0 || moreRounds(r, t0, o.seconds);
         ++round) {
        VeilVm vm(baseConfig(kMemMb, 2, o.trace));
        snp::Machine &m = vm.machine();
        fleet::FleetConfig fc;
        fc.sessions = kSessions;
        fc.maxLive = 32;
        fc.quantum = 4;
        fc.callsMax = 8;
        fc.pagesPerCall = 8;
        fc.burnPerCall = 20'000;
        fc.seed = roundSeed(vm, fc, o.seed, round);
        if (fc.seed == 0) {
            r.fail("enclave-fleet: no fleet seed gives " +
                   std::to_string(kCallsPerRound) + " calls a round");
            r.attempted += kSessions;
            r.failed += kSessions;
            break;
        }
        fleet::FleetManager fm(vm, fc);

        uint64_t frames_before = 0, frames_after = 0;
        bool sealed = false;
        auto run = vm.run([&](Kernel &k, Process &) {
            frames_before = k.frames().inUse();
            {
                ScopedSpan s(spans, "fleet_seal", round, m);
                sealed = fm.sealTemplate(k);
            }
            if (!sealed)
                return;
            if (round == 0) {
                r.setupCpuS = cpuNow();
                r.setupSimCycles = m.tsc();
                t0 = wallNow();
            }
            {
                RoundTimer timer(r, vm);
                {
                    ScopedSpan s(spans, "fleet_run", round, m);
                    fm.run(k);
                }
                {
                    ScopedSpan s(spans, "fleet_release", round, m);
                    fm.releaseTemplate(k);
                }
            }
            frames_after = k.frames().inUse();
            r.framesHighWater = k.frames().highWater();
        });

        // Checks, outside the timed interval.
        const fleet::FleetStats &st = fm.stats();
        uint64_t call_sum = 0;
        for (uint32_t i = 0; i < kSessions; ++i)
            call_sum += fm.callsFor(i);
        std::vector<std::string> errs;
        if (!sealed)
            errs.push_back("template seal failed");
        if (!run.terminated || m.halted())
            errs.push_back("CVM did not terminate cleanly: " +
                           m.haltInfo().reason);
        if (st.checksumErrors != 0)
            errs.push_back(std::to_string(st.checksumErrors) +
                           " checksum errors");
        if (st.killedSessions != 0)
            errs.push_back(std::to_string(st.killedSessions) +
                           " sessions killed");
        if (st.sessionsCompleted != kSessions)
            errs.push_back(std::to_string(st.sessionsCompleted) +
                           " sessions completed");
        std::string e = checkCallTotal(call_sum, st.callsCompleted);
        if (!e.empty())
            errs.push_back(e);
        e = checkFramesReturned(frames_before, frames_after);
        if (!e.empty())
            errs.push_back(e);
        for (const std::string &err : errs)
            r.fail("enclave-fleet round " + std::to_string(round) + ": " +
                   err);
        // A round's sessions share one CVM and one template: any wrong
        // output puts all of them in doubt.
        if (!errs.empty())
            r.failed += kSessions;
        if (!sealed) {
            r.attempted += kSessions; // no op ran, so no RoundTimer did
            break;
        }
        if (samples && errs.empty()) {
            samples->fleetCallSum = call_sum;
            samples->fleetCallsCompleted = st.callsCompleted;
            samples->framesBefore = frames_before;
            samples->framesAfter = frames_after;
        }

        if (round < kWindowRounds) {
            clone_cycles.push_back(double(fm.avgCloneCycles()));
            steals += st.steals;
            working_set += st.workingSetPages;
            r.vmsaSlots = m.vmsaCount();
            if (round == 0)
                r.layer["fleet.template_boot_sim_cycles"] =
                    double(fm.bootCycles());
        }
        r.traceDropped += m.tracer().droppedEvents();
        if (round == 0 && o.trace && !o.outDir.empty())
            writeVeilTrace(m, o.outDir);
    }

    r.layer["fleet.clone_sim_cycles"] = quantile(clone_cycles, 0.5);
    double ops = double(std::max<uint64_t>(r.windowOps, 1));
    r.layer["fleet.steals"] = double(steals) / ops;
    r.layer["fleet.working_set_pages"] = double(working_set) / ops;
    if (spans.on()) {
        r.layer["fleet.seal_host_s"] =
            quantile(spans.hostMs("fleet_seal"), 0.5) / 1e3;
        r.layer["fleet.run_host_s"] =
            quantile(spans.hostMs("fleet_run"), 0.5) / 1e3;
        r.layer["fleet.release_host_s"] =
            quantile(spans.hostMs("fleet_release"), 0.5) / 1e3;
    }
    return r;
}

} // namespace pb
