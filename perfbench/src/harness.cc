#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "base/log.hh"
#include "crypto/stats.hh"
#include "trace/chrome.hh"

namespace pb {

using namespace veil;

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
Gen::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    Gen g(seed ^ (stream * 0xd1b54a32d192ed03ULL));
    return g.next();
}

// ---- SpanLog ----

SpanLog::SpanLog(bool on) : on_(on), t0_(wallNow()) {}

int64_t
SpanLog::begin(const char *name, uint64_t round, uint64_t tsc)
{
    if (!on_)
        return -1;
    Span s;
    s.name = name;
    s.round = round;
    s.parent = open_.empty() ? -1 : open_.back();
    s.wallStart = wallNow() - t0_;
    s.cpuDur = cpuNow(); // start value until end()
    s.simStart = tsc;
    spans_.push_back(std::move(s));
    int64_t id = int64_t(spans_.size()) - 1;
    open_.push_back(id);
    return id;
}

void
SpanLog::end(int64_t id, uint64_t tsc)
{
    if (id < 0)
        return;
    Span &s = spans_[size_t(id)];
    s.wallDur = wallNow() - t0_ - s.wallStart;
    s.cpuDur = cpuNow() - s.cpuDur;
    s.simDur = tsc - s.simStart;
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

std::vector<double>
SpanLog::hostMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.wallDur * 1e3);
    }
    return out;
}

std::vector<double>
SpanLog::simCycles(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(double(s.simDur));
    }
    return out;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"round\":%llu,"
                     "\"parent\":%lld,\"wall_start_s\":%.9f,"
                     "\"wall_s\":%.9f,\"cpu_s\":%.9f,\"sim_start\":%llu,"
                     "\"sim_cycles\":%llu}%s\n",
                     i, s.name.c_str(), (unsigned long long)s.round,
                     (long long)s.parent, s.wallStart, s.wallDur, s.cpuDur,
                     (unsigned long long)s.simStart,
                     (unsigned long long)s.simDur,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

// ---- Counters ----

Counters &
Counters::operator+=(const Counters &o)
{
    tlbHits += o.tlbHits;
    tlbMisses += o.tlbMisses;
    tlbFlushes += o.tlbFlushes;
    tlbShootdowns += o.tlbShootdowns;
    rmpadjusts += o.rmpadjusts;
    pvalidates += o.pvalidates;
    vmEntries += o.vmEntries;
    vmExits += o.vmExits;
    domainSwitches += o.domainSwitches;
    hvExits += o.hvExits;
    intrRedirects += o.intrRedirects;
    syscalls += o.syscalls;
    auditRecords += o.auditRecords;
    auditRingDrops += o.auditRingDrops;
    auditBatchFlushes += o.auditBatchFlushes;
    auditFlushedRecords += o.auditFlushedRecords;
    monitorCalls += o.monitorCalls;
    serviceCalls += o.serviceCalls;
    enclaveFaults += o.enclaveFaults;
    sha256Blocks += o.sha256Blocks;
    hmacKeyInits += o.hmacKeyInits;
    aesKeySchedules += o.aesKeySchedules;
    for (size_t i = 0; i < trace::kCategoryCount; ++i)
        catCycles[i] += o.catCycles[i];
    tsc += o.tsc;
    return *this;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters d;
    d.tlbHits = tlbHits - o.tlbHits;
    d.tlbMisses = tlbMisses - o.tlbMisses;
    d.tlbFlushes = tlbFlushes - o.tlbFlushes;
    d.tlbShootdowns = tlbShootdowns - o.tlbShootdowns;
    d.rmpadjusts = rmpadjusts - o.rmpadjusts;
    d.pvalidates = pvalidates - o.pvalidates;
    d.vmEntries = vmEntries - o.vmEntries;
    d.vmExits = vmExits - o.vmExits;
    d.domainSwitches = domainSwitches - o.domainSwitches;
    d.hvExits = hvExits - o.hvExits;
    d.intrRedirects = intrRedirects - o.intrRedirects;
    d.syscalls = syscalls - o.syscalls;
    d.auditRecords = auditRecords - o.auditRecords;
    d.auditRingDrops = auditRingDrops - o.auditRingDrops;
    d.auditBatchFlushes = auditBatchFlushes - o.auditBatchFlushes;
    d.auditFlushedRecords = auditFlushedRecords - o.auditFlushedRecords;
    d.monitorCalls = monitorCalls - o.monitorCalls;
    d.serviceCalls = serviceCalls - o.serviceCalls;
    d.enclaveFaults = enclaveFaults - o.enclaveFaults;
    d.sha256Blocks = sha256Blocks - o.sha256Blocks;
    d.hmacKeyInits = hmacKeyInits - o.hmacKeyInits;
    d.aesKeySchedules = aesKeySchedules - o.aesKeySchedules;
    for (size_t i = 0; i < trace::kCategoryCount; ++i)
        d.catCycles[i] = catCycles[i] - o.catCycles[i];
    d.tsc = tsc - o.tsc;
    return d;
}

Counters
snapshot(sdk::VeilVm &vm)
{
    Counters c;
    const snp::MachineStats &ms = vm.machine().stats();
    c.tlbHits = ms.tlbHits;
    c.tlbMisses = ms.tlbMisses;
    c.tlbFlushes = ms.tlbFlushes;
    c.tlbShootdowns = ms.tlbShootdowns;
    c.rmpadjusts = ms.rmpadjusts;
    c.pvalidates = ms.pvalidates;
    c.vmEntries = ms.entries;
    c.vmExits = ms.nonAutomaticExits + ms.automaticExits;
    const hv::HvStats &hs = vm.hypervisor().stats();
    c.domainSwitches = hs.domainSwitches;
    c.hvExits = hs.exits;
    c.intrRedirects = hs.intrRedirects;
    const kern::KernelStats &ks = vm.kernel().stats();
    c.syscalls = ks.syscalls;
    c.auditRecords = ks.auditRecords;
    c.auditRingDrops = ks.auditRingDrops;
    c.auditBatchFlushes = ks.auditBatchFlushes;
    c.auditFlushedRecords = ks.auditFlushedRecords;
    c.monitorCalls = ks.monitorCalls;
    c.serviceCalls = ks.serviceCalls;
    c.enclaveFaults = ks.enclaveFaults;
    const crypto::CryptoStats &cs = crypto::cryptoStats();
    c.sha256Blocks = cs.sha256Blocks;
    c.hmacKeyInits = cs.hmacKeyInits;
    c.aesKeySchedules = cs.aesKeySchedules;
    const trace::Tracer &tr = vm.machine().tracer();
    for (size_t i = 0; i < trace::kCategoryCount; ++i)
        c.catCycles[i] = tr.cycles(static_cast<trace::Category>(i));
    c.tsc = vm.machine().tsc();
    return c;
}

// ---- Result / RoundTimer ----

void
Result::fail(const std::string &what)
{
    if (errors.size() < 16)
        errors.push_back(what);
    else if (errors.size() == 16)
        errors.push_back("(further failures not listed)");
}

RoundTimer::RoundTimer(Result &r, sdk::VeilVm &vm)
    : r_(r), vm_(vm), inWindow_(r.roundCpuS.size() < r.windowRounds)
{
    if (inWindow_)
        c0_ = snapshot(vm_);
    tsc0_ = vm_.machine().tsc();
    cpu0_ = cpuNow();
}

RoundTimer::~RoundTimer()
{
    r_.roundCpuS.push_back(cpuNow() - cpu0_);
    r_.roundSim.push_back(vm_.machine().tsc() - tsc0_);
    if (inWindow_) {
        r_.window += snapshot(vm_) - c0_;
        r_.windowOps += r_.opsPerRound;
    }
    r_.attempted += r_.opsPerRound;
}

bool
moreRounds(const Result &r, double t0, double seconds)
{
    return r.roundCpuS.size() < r.windowRounds || wallNow() - t0 < seconds;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

sdk::VmConfig
baseConfig(size_t mem_mb, uint32_t vcpus, bool trace)
{
    LogConfig::setThreshold(LogLevel::Silent);
    // The environment override wins over the config field, so set both:
    // untraced runs are VEIL_TRACE=off whatever the caller's shell says.
    setenv("VEIL_TRACE", trace ? "on" : "off", 1);
    sdk::VmConfig cfg;
    cfg.machine.memBytes = mem_mb * 1024 * 1024;
    cfg.machine.numVcpus = vcpus;
    cfg.machine.hostThreads = 0;
    cfg.machine.trace.enabled = trace;
    return cfg;
}

void
writeVeilTrace(const snp::Machine &m, const std::string &dir)
{
    const trace::Tracer &tr = m.tracer();
    if (!tr.enabled())
        return;
    trace::writeChromeTrace(tr, dir + "/veiltrace.json");
    std::ofstream out(dir + "/cycles_by_category.txt");
    uint64_t total = tr.totalCycles();
    out << "category cycles share\n";
    for (size_t i = 0; i < trace::kCategoryCount; ++i) {
        auto cat = static_cast<trace::Category>(i);
        uint64_t c = tr.cycles(cat);
        char line[160];
        std::snprintf(line, sizeof(line), "%s %llu %.4f\n",
                      trace::categoryName(cat), (unsigned long long)c,
                      total ? double(c) / double(total) : 0.0);
        out << line;
    }
    out << "total " << total << " 1.0000\n";
    out << "events_recorded " << tr.recordedEvents() << "\n";
    out << "events_dropped " << tr.droppedEvents() << "\n";
}

} // namespace pb
