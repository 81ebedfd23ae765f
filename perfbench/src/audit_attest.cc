/**
 * @file
 * audit-attest: attested VeilS-LOG auditing (paper §6.3 / §9.3).
 *
 * An untrusted Dom-UNT process issues a seeded file-I/O round on the
 * ramfs under group-commit auditing (VeilLogBatched, prior-work
 * ruleset). Every round, one of a small fixed population of returning
 * remote auditors attests the CVM, fetches the round's records over
 * the sealed channel, clears the log and tears the session down.
 * One op is one round.
 *
 * A round is sized to fill exactly one group commit of the default
 * batch (KernelConfig::auditBatchSize = 32, the batch DESIGN.md §9
 * recommends): five atomic updates (creat + write + close of a
 * temporary file, then rename over the target: 4 records each) and
 * four read-backs (open + read + close: 3 records each), in seeded
 * order, so 5 x 4 + 4 x 3 = 32 records and one size-triggered flush
 * per round for every seed.
 */
#include <map>
#include <memory>

#include "sdk/remote.hh"
#include "workloads.hh"

namespace pb {

using namespace veil;
using namespace veil::sdk;
using kern::Kernel;
using kern::Process;

namespace {

constexpr int kAuditors = 4;  ///< returning remote users
constexpr int kFileNames = 8; ///< ramfs working set
constexpr int kUpdatesPerRound = 5;
constexpr int kReadsPerRound = 4;
/// One group commit per round: 4 records per update, 3 per read-back.
constexpr uint32_t kRecordsPerRound = 4 * kUpdatesPerRound + 3 * kReadsPerRound;
static_assert(kRecordsPerRound == 32, "a round fills one default batch");
/// Writes and reads fit the one guest page mapped as the I/O buffer.
constexpr size_t kMaxFileBytes = 4096;
constexpr uint64_t kWindowRounds = 100;
const char *const kTmpName = "/audit_tmp";

std::string
fileName(uint64_t i)
{
    return "/audit_f" + std::to_string(i);
}

} // namespace

bool
logStatsQuery(RemoteUser &u, Kernel &k, Result &r)
{
    auto resp = u.queryLogs(k, core::LogQueryCmd::Stats, 0);
    if (!resp || resp->size() != 24)
        return false;
    r.layer["veil.log.records_total"] = double(loadLe<uint64_t>(resp->data()));
    r.layer["veil.log.store_drops"] =
        double(loadLe<uint64_t>(resp->data() + 16));
    return true;
}

Result
runAuditAttest(const Options &o, SpanLog &spans, Samples *samples)
{
    Result r;
    r.opsPerRound = 1;
    r.windowRounds = kWindowRounds;

    VmConfig cfg = baseConfig(64, 1, o.trace);
    cfg.kernel.auditBackend = kern::AuditBackend::VeilLogBatched;
    cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
    cfg.kernel.auditBatchSize = kRecordsPerRound;
    VeilVm vm(cfg);
    snp::Machine &m = vm.machine();

    uint64_t stored_bytes = 0;
    vm.run([&](Kernel &k, Process &) {
        Process &app = k.makeProcess("auditee");
        NativeEnv env(k, app);

        // Set-up runs unaudited: buffers and the path staging area are
        // mapped now, so a round issues only the file syscalls it lists.
        app.audited = false;
        snp::Gva buf = env.alloc(kMaxFileBytes);
        snp::Gva path_va = env.stageString("");
        std::vector<std::unique_ptr<RemoteUser>> users;
        for (int i = 0; i < kAuditors; ++i)
            users.push_back(std::make_unique<RemoteUser>(
                vm, mixSeed(o.seed, 100 + uint64_t(i))));

        // The auditee's initial working set: every name of the set holds a
        // seeded file before the first round.
        Gen gen(mixSeed(o.seed, 1));
        std::map<std::string, std::string> model; // ramfs as written
        for (uint64_t i = 0; i < kFileNames; ++i) {
            std::string data(1 + gen.below(kMaxFileBytes), '\0');
            for (char &c : data)
                c = char(gen.next());
            int fd = int(env.creat(fileName(i)));
            env.copyIn(buf, data.data(), data.size());
            if (fd < 0 || env.write(fd, buf, data.size()) != int64_t(data.size()))
                r.fail("audit-attest: writing the initial working set failed");
            env.close(fd);
            model[fileName(i)] = std::move(data);
        }
        app.audited = true;
        uint64_t next_seq = k.audit().recordCount() + 1;
        uint64_t last_gen = 0;

        r.setupCpuS = cpuNow();
        r.setupSimCycles = m.tsc();
        double t0 = wallNow();
        for (uint64_t round = 0; moreRounds(r, t0, o.seconds); ++round) {
            std::vector<ExpectedRecord> expected;
            std::vector<std::pair<std::string, std::string>> reads;
            std::string read_err;
            RemoteUser &u = *users[round % kAuditors];
            bool established = false, parse_error = false, cleared = false;
            bool torn_down = false;
            std::vector<std::string> fetched;
            uint64_t seq0 = next_seq;
            {
                RoundTimer timer(r, vm);
                {
                    ScopedSpan s(spans, "file_ops", round, m);
                    // Seeded order of the round's transactions.
                    bool kinds[kUpdatesPerRound + kReadsPerRound];
                    for (int i = 0; i < kUpdatesPerRound + kReadsPerRound; ++i)
                        kinds[i] = i < kUpdatesPerRound;
                    for (int i = kUpdatesPerRound + kReadsPerRound - 1; i > 0;
                         --i)
                        std::swap(kinds[i], kinds[gen.below(uint64_t(i) + 1)]);
                    for (bool update : kinds) {
                        std::string name = fileName(gen.below(kFileNames));
                        if (update) {
                            // creat + write + close a temporary file, then
                            // rename it over the target.
                            std::string data(1 + gen.below(kMaxFileBytes),
                                             '\0');
                            for (char &c : data)
                                c = char(gen.next());
                            int fd = int(env.creat(kTmpName));
                            expected.push_back(
                                {kern::kSysCreat, app.pid, path_va, 0, false});
                            env.copyIn(buf, data.data(), data.size());
                            int64_t n = env.write(fd, buf, data.size());
                            expected.push_back({kern::kSysWrite, app.pid,
                                                uint64_t(fd), data.size(),
                                                true});
                            env.close(fd);
                            expected.push_back(
                                {kern::kSysClose, app.pid, uint64_t(fd), 0,
                                 false});
                            int64_t rc = env.rename(kTmpName, name);
                            expected.push_back({kern::kSysRename, app.pid,
                                                path_va, 0, false});
                            if (fd < 0 || n != int64_t(data.size()) || rc != 0)
                                read_err = "atomic update failed on " + name;
                            model[name] = std::move(data);
                        } else {
                            // open + read + close
                            int fd = int(env.open(name, kern::kO_RDONLY));
                            expected.push_back({kern::kSysOpen, app.pid,
                                                path_va, 0, false});
                            int64_t n = env.read(fd, buf, kMaxFileBytes);
                            expected.push_back({kern::kSysRead, app.pid,
                                                uint64_t(fd), kMaxFileBytes,
                                                true});
                            std::string got(n > 0 ? size_t(n) : 0, '\0');
                            env.copyOut(buf, got.data(), got.size());
                            env.close(fd);
                            expected.push_back({kern::kSysClose, app.pid,
                                                uint64_t(fd), 0, false});
                            reads.emplace_back(model[name], std::move(got));
                        }
                    }
                }
                {
                    ScopedSpan s(spans, "establish", round, m);
                    established = u.establishChannel(k);
                }
                if (established) {
                    {
                        ScopedSpan s(spans, "fetch", round, m);
                        fetched = u.retrieveAllRecords(k, &parse_error);
                    }
                    {
                        ScopedSpan s(spans, "clear", round, m);
                        cleared = u.queryLogs(k, core::LogQueryCmd::Clear,
                                              0)
                                      .has_value();
                    }
                    {
                        ScopedSpan s(spans, "teardown", round, m);
                        torn_down = u.teardownChannel(k);
                    }
                }
            }

            // Checks, outside the timed interval.
            bool ok = true;
            auto bad = [&](const std::string &why) {
                r.fail("audit-attest round " + std::to_string(round) + ": " +
                       why);
                ok = false;
            };
            if (!read_err.empty())
                bad(read_err);
            for (const auto &[want, got] : reads) {
                if (want != got) {
                    bad("read data differs from what was written");
                    break;
                }
            }
            if (!established) {
                bad(std::string("establish failed: ") +
                    attest::verifyResultName(u.lastVerifyResult()));
            } else {
                if (u.sessionGeneration() != last_gen + 1)
                    bad("session generation " +
                        std::to_string(u.sessionGeneration()) +
                        " after " + std::to_string(last_gen));
                last_gen = u.sessionGeneration();
                if (parse_error)
                    bad("fetched record stream malformed");
                std::string err = checkAuditRound(expected, fetched, next_seq);
                if (!err.empty())
                    bad(err);
                if (!cleared)
                    bad("log clear refused");
                if (!torn_down)
                    bad("teardown refused");
            }
            if (round < r.windowRounds) {
                for (const std::string &rec : fetched)
                    stored_bytes += 4 + rec.size();
            }
            if (!ok)
                ++r.failed;
            if (samples && ok) {
                samples->auditExpected = expected;
                samples->auditFetched = fetched;
                samples->auditSeq = seq0;
            }
        }

        // Final audit session: nothing lost or dropped over the run.
        RemoteUser &u = *users[0];
        if (!u.establishChannel(k) || !logStatsQuery(u, k, r) ||
            !u.teardownChannel(k)) {
            r.fail("audit-attest: final LOG Stats session failed");
        } else {
            uint64_t kernel_records = k.stats().auditRecords;
            if (r.layer["veil.log.records_total"] != double(kernel_records))
                r.fail("audit-attest: LOG stored " +
                       std::to_string(uint64_t(
                           r.layer["veil.log.records_total"])) +
                       " records, kernel produced " +
                       std::to_string(kernel_records));
            if (r.layer["veil.log.store_drops"] != 0)
                r.fail("audit-attest: LOG store dropped records");
            if (k.stats().auditRingDrops != 0)
                r.fail("audit-attest: audit ring dropped records");
        }
        r.vmsaSlots = m.vmsaCount();
        r.framesHighWater = k.frames().highWater();
    });
    if (!m.halted() && r.roundCpuS.empty())
        r.fail("audit-attest: no round ran");
    if (m.halted())
        r.fail("audit-attest: CVM halted: " + m.haltInfo().reason);

    r.layer["veil.log.bytes_stored"] =
        double(stored_bytes) / double(std::max<uint64_t>(r.windowOps, 1));
    r.traceDropped = m.tracer().droppedEvents();
    if (o.trace && !o.outDir.empty())
        writeVeilTrace(m, o.outDir);
    return r;
}

} // namespace pb
