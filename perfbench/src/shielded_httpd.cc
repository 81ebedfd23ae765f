/**
 * @file
 * shielded-httpd: a Lighttpd analogue (wl::HttpServer) inside one
 * long-lived VeilS-ENC enclave with async ocalls on (paper Fig. 5).
 *
 * The benchmark's own ab-style client on the untrusted side keeps
 * kConcurrency requests in flight in a closed loop over seeded document
 * files and checks every response body against the file it wrote. The
 * client is pumped from the enclave's ocall hook, as a co-scheduled
 * process would be. Auditing is execute-ahead (AuditBackend::VeilLog):
 * group commit cannot flush inside an ocall session, so the batched
 * backend would drop most of an enclave server's records. After each
 * round the records are fetched gap-free over a sealed channel that
 * stays up for the whole run, and the store is cleared, so it never
 * fills. One op is one request.
 */
#include <cstdio>

#include "workloads.hh"
#include "workloads/vhttpd.hh"

namespace pb {

using namespace veil;
using namespace veil::sdk;
using kern::Kernel;
using kern::Process;

namespace {

constexpr uint64_t kRequestsPerRound = 50;
constexpr int kConcurrency = 4;
constexpr uint16_t kPort = 8080;
constexpr uint64_t kClientCyclesPerReq = 55'000;
constexpr uint64_t kWindowRounds = 4;

/** ab-style closed-loop client that keeps every response it reads. */
class Client
{
  public:
    Client(NativeEnv &env, snp::Gva buf, size_t buf_len)
        : env_(env), buf_(buf), bufLen_(buf_len), conns_(kConcurrency)
    {
    }

    /** Start a round: the file index of each request, in order. */
    void start(std::vector<size_t> plan)
    {
        plan_ = std::move(plan);
        next_ = 0;
        done_.clear();
    }

    /** Advance every connection one step. */
    void pump()
    {
        for (Conn &c : conns_) {
            if (c.fd < 0) {
                if (next_ >= plan_.size())
                    continue;
                int fd = int(env_.socket());
                if (fd < 0)
                    continue;
                if (env_.connect(fd, kPort) != 0) {
                    // The server is not listening yet: try again on the
                    // next pump. Not a failed request.
                    env_.close(fd);
                    continue;
                }
                char req[64];
                int len = std::snprintf(req, sizeof(req),
                                        "GET /www_f%zu HTTP/1.0\r\n\r\n",
                                        plan_[next_]);
                env_.copyIn(buf_, req, size_t(len));
                env_.send(fd, buf_, size_t(len));
                env_.burn(kClientCyclesPerReq);
                c.fd = fd;
                c.file = plan_[next_++];
                c.resp.clear();
                continue;
            }
            int64_t n = env_.recv(c.fd, buf_, bufLen_);
            if (n > 0) {
                size_t off = c.resp.size();
                c.resp.resize(off + size_t(n));
                env_.copyOut(buf_, c.resp.data() + off, size_t(n));
            } else if (n == 0) {
                env_.close(c.fd);
                c.fd = -1;
                done_.emplace_back(c.file, std::move(c.resp));
            }
        }
    }

    bool finished() const { return done_.size() == plan_.size(); }
    size_t requested() const { return next_; }
    const std::vector<std::pair<size_t, std::string>> &done() const
    {
        return done_;
    }

  private:
    struct Conn
    {
        int fd = -1;
        size_t file = 0;
        std::string resp;
    };

    NativeEnv &env_;
    snp::Gva buf_;
    size_t bufLen_;
    std::vector<Conn> conns_;
    std::vector<size_t> plan_;
    size_t next_ = 0;
    std::vector<std::pair<size_t, std::string>> done_;
};

} // namespace

Result
runShieldedHttpd(const Options &o, SpanLog &spans, Samples *samples)
{
    Result r;
    r.opsPerRound = kRequestsPerRound;
    r.windowRounds = kWindowRounds;

    VmConfig cfg = baseConfig(96, 1, o.trace);
    cfg.kernel.auditBackend = kern::AuditBackend::VeilLog;
    cfg.kernel.auditRules = kern::priorWorkAuditRuleset();
    VeilVm vm(cfg);
    snp::Machine &m = vm.machine();

    // The document root is VhttpdParams' default: 16 files of 10 KiB
    // (bench_audit's NGINX row). Their bytes and the request plan are
    // seeded.
    Gen gen(mixSeed(o.seed, 2));
    wl::VhttpdParams prm;
    const size_t files = prm.files;
    const size_t file_bytes = prm.fileBytes;
    prm.port = kPort;
    prm.requests = kRequestsPerRound;
    prm.concurrency = kConcurrency;

    uint64_t ocalls = 0, async_ocalls = 0, faults = 0, marshal = 0;
    uint64_t stored_bytes = 0;
    auto run = vm.run([&](Kernel &k, Process &p) {
        NativeEnv env(k, p);
        // The load generator stands for remote ab clients, outside the
        // audited system: only the server's syscalls produce records.
        Process &ab = k.makeProcess("ab");
        ab.audited = false;
        NativeEnv ab_env(k, ab);

        // Seeded documents, written through the untrusted kernel.
        std::vector<std::string> docs(files);
        snp::Gva buf = ab_env.alloc(file_bytes + 256);
        for (size_t i = 0; i < files; ++i) {
            docs[i].resize(file_bytes);
            for (char &c : docs[i])
                c = char(gen.next());
            char path[32];
            std::snprintf(path, sizeof(path), "/www_f%zu", i);
            int fd = int(ab_env.creat(path));
            ab_env.copyIn(buf, docs[i].data(), file_bytes);
            if (fd < 0 ||
                ab_env.write(fd, buf, file_bytes) != int64_t(file_bytes))
                r.fail("shielded-httpd: writing a document failed");
            ab_env.close(fd);
        }

        EnclaveHost host(env, vm.programs());
        EnclaveHost::Params ep;
        ep.asyncOcalls = true;
        bool created = host.create(
            [prm](Env &e) -> int64_t {
                wl::HttpServer server(e, prm);
                server.runToCompletion();
                return int64_t(server.served());
            },
            ep);
        Client client(ab_env, buf, file_bytes + 256);
        host.setOcallHook([&client] { client.pump(); });

        // One sealed session for the whole run: drain set-up's records.
        RemoteUser auditor(vm, mixSeed(o.seed, 200));
        uint64_t next_seq = 1, fetched_total = 0, drained_bytes = 0;
        auto drain = [&](const std::string &when) {
            bool perr = false;
            std::vector<std::string> recs =
                auditor.retrieveAllRecords(k, &perr);
            drained_bytes = 0;
            for (const std::string &rec : recs)
                drained_bytes += 4 + rec.size();
            std::string err = perr ? "record stream malformed"
                                   : checkSeqRun(recs, next_seq);
            if (!auditor.queryLogs(k, core::LogQueryCmd::Clear, 0))
                err = "log clear refused";
            fetched_total += recs.size();
            if (fetched_total != k.stats().auditRecords)
                err = "fetched " + std::to_string(fetched_total) +
                      " records, kernel produced " +
                      std::to_string(uint64_t(k.stats().auditRecords));
            return err.empty() ? err : when + ": " + err;
        };
        if (!created || !auditor.establishChannel(k)) {
            r.fail("shielded-httpd: enclave create or establish failed");
            return;
        }
        if (std::string e = drain("set-up"); !e.empty()) {
            r.fail("shielded-httpd: " + e);
            return;
        }

        r.setupCpuS = cpuNow();
        r.setupSimCycles = m.tsc();
        double t0 = wallNow();
        for (uint64_t round = 0; moreRounds(r, t0, o.seconds); ++round) {
            std::vector<size_t> plan(kRequestsPerRound);
            for (size_t &f : plan)
                f = gen.below(files);
            client.start(plan);
            uint64_t ocalls0 = host.ocallsServed();
            uint64_t async0 = host.asyncOcallsServed();
            uint64_t faults0 = host.faultsServed();
            // The enclave's SDK statistics are cumulative since create.
            uint64_t marshal0 = host.lastRunStats().marshalCycles;
            int64_t served = 0;
            int pumps = 0;
            {
                RoundTimer timer(r, vm);
                {
                    ScopedSpan s(spans, "enclave_call", round, m);
                    served = host.call();
                }
                ScopedSpan s(spans, "client_pump", round, m);
                while (!client.finished() && ++pumps < 100000)
                    client.pump();
            }

            // Checks, outside the timed interval.
            uint64_t bad = 0;
            for (const auto &[file, resp] : client.done()) {
                std::string e = checkResponse(docs[file], resp);
                if (!e.empty()) {
                    ++bad;
                    r.fail("shielded-httpd round " + std::to_string(round) +
                           ": " + e);
                }
            }
            uint64_t missing = kRequestsPerRound - client.done().size();
            if (served != int64_t(kRequestsPerRound) || missing != 0 ||
                client.requested() != kRequestsPerRound)
                r.fail("shielded-httpd round " + std::to_string(round) +
                       ": served " + std::to_string(served) + ", completed " +
                       std::to_string(client.done().size()) + ", requested " +
                       std::to_string(client.requested()));
            r.failed += bad + missing;
            if (samples && bad == 0 && !client.done().empty()) {
                samples->httpBody = docs[client.done().back().first];
                samples->httpResponse = client.done().back().second;
            }
            if (round < kWindowRounds) {
                ocalls += host.ocallsServed() - ocalls0;
                async_ocalls += host.asyncOcallsServed() - async0;
                faults += host.faultsServed() - faults0;
                marshal += host.lastRunStats().marshalCycles - marshal0;
            }
            if (std::string e = drain("round " + std::to_string(round));
                !e.empty())
                r.fail("shielded-httpd: " + e);
            if (round < kWindowRounds)
                stored_bytes += drained_bytes;
        }

        if (!logStatsQuery(auditor, k, r)) {
            r.fail("shielded-httpd: LOG Stats query failed");
        } else {
            if (r.layer["veil.log.records_total"] != double(k.stats().auditRecords))
                r.fail("shielded-httpd: LOG holds a different record count "
                       "than the kernel produced");
            if (r.layer["veil.log.store_drops"] != 0)
                r.fail("shielded-httpd: LOG store dropped records");
        }
        if (!auditor.teardownChannel(k))
            r.fail("shielded-httpd: teardown refused");
        host.destroy();
        r.vmsaSlots = m.vmsaCount();
        r.framesHighWater = k.frames().highWater();
    });
    if (!run.terminated || m.halted())
        r.fail("shielded-httpd: CVM did not terminate cleanly: " +
               m.haltInfo().reason);

    double ops = double(std::max<uint64_t>(r.windowOps, 1));
    r.layer["sdk.ocalls"] = double(ocalls) / ops;
    r.layer["sdk.async_ocalls"] = double(async_ocalls) / ops;
    r.layer["sdk.enclave_faults"] = double(faults) / ops;
    r.layer["sdk.marshal_sim_cycles"] = double(marshal) / ops;
    r.layer["veil.log.bytes_stored"] = double(stored_bytes) / ops;
    r.traceDropped = m.tracer().droppedEvents();
    if (o.trace && !o.outDir.empty())
        writeVeilTrace(m, o.outDir);
    return r;
}

} // namespace pb
