/**
 * @file
 * DESIGN.md §15 attestation & session-provisioning benchmark:
 *
 *  - End-to-end session throughput: establish + teardown cycles per
 *    second through a live CVM (report signing, chain transport over
 *    the IDCB, full remote verification, DH, sealed teardown), plus
 *    the simulated cycle cost per handshake.
 *  - Standalone verifier throughput: report verifications per second
 *    with the chain-walk cache warm vs cold (a fresh Verifier per
 *    report — four signature checks instead of one).
 *  - Raw modular exponentiation rate: full-width variable-base powers
 *    mod p, the unit of host work behind every DH and Schnorr step.
 *
 * Doubles as a CI gate (exit 1 on violation): every handshake must
 * verify and session generations must advance by exactly one; the
 * verifier must reject a forged report and a rolled-back TCB; cached
 * and cold verification must agree.
 */
#include "common.hh"

#include <chrono>

#include "attest/keys.hh"
#include "attest/verify.hh"
#include "base/rng.hh"
#include "crypto/field.hh"
#include "sdk/vm.hh"

using namespace veil;
using namespace veil::bench;
using namespace veil::sdk;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    jsonInit(&argc, argv, "bench_attest");
    heading("§15 attestation & session provisioning");

    int failures = 0;

    // ---- End-to-end session throughput through a live CVM ----
    constexpr int kSessions = 40;
    VmConfig cfg = veilConfig(48);
    VeilVm vm(cfg);
    uint64_t handshake_cycles = 0;
    int established = 0;
    auto t0 = std::chrono::steady_clock::now();
    vm.run([&](kern::Kernel &k, kern::Process &) {
        for (int i = 0; i < kSessions; ++i) {
            RemoteUser u(vm, 1000 + i);
            uint64_t c0 = vm.machine().tsc();
            bool ok = u.establishChannel(k);
            handshake_cycles += vm.machine().tsc() - c0;
            if (!ok || u.sessionGeneration() != uint64_t(i) + 1) {
                ++failures;
                continue;
            }
            ++established;
            if (!u.teardownChannel(k))
                ++failures;
        }
    });
    double wall = secondsSince(t0);
    double sessions_per_sec = established / wall;
    double cycles_per_handshake =
        established ? double(handshake_cycles) / established : 0;

    Table t1("End-to-end sessions (establish + verify + teardown)",
             {"Metric", "Value"});
    t1.addRow({"sessions run", fmt("%d", established)});
    t1.addRow({"sessions/sec (host wall)", fmt("%.1f", sessions_per_sec)});
    t1.addRow({"sim cycles/handshake", fmt("%.0f", cycles_per_handshake)});
    t1.print();
    jsonMetric("sessions_per_sec", sessions_per_sec, "1/s");
    jsonMetric("cycles_per_handshake", cycles_per_handshake, "cycles");

    // ---- Standalone verifier throughput (no VM) ----
    Bytes seed{'b', 'e', 'n', 'c', 'h', '-', 'p', 's', 'p'};
    attest::PlatformKeys keys(seed, attest::kDefaultTcbVersion);
    crypto::Digest measurement = crypto::Sha256::hash("image", 5);
    attest::ReportData rd{};
    attest::AttestationReport report = keys.signReport(0, measurement, rd);
    attest::CertChain chain = keys.certChain();

    attest::VerifyPolicy policy;
    policy.expectedMeasurement = measurement;
    policy.minTcbVersion = attest::kDefaultTcbVersion;

    constexpr int kVerifies = 200;
    attest::Verifier cached(keys.rootPublic(), policy);
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kVerifies; ++i) {
        if (cached.verify(report, chain) != attest::VerifyResult::Ok)
            ++failures;
    }
    double cached_rate = kVerifies / secondsSince(t0);

    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kVerifies; ++i) {
        attest::Verifier cold(keys.rootPublic(), policy);
        if (cold.verify(report, chain) != attest::VerifyResult::Ok)
            ++failures;
    }
    double cold_rate = kVerifies / secondsSince(t0);

    Table t2("Standalone verifier throughput",
             {"Variant", "verifications/sec", "speedup"});
    t2.addRow({"chain-walk cache warm", fmt("%.0f", cached_rate),
               fmt("%.2fx", cached_rate / cold_rate)});
    t2.addRow({"cold (fresh verifier)", fmt("%.0f", cold_rate), "1.00x"});
    t2.print();
    jsonMetric("verify_cached_per_sec", cached_rate, "1/s");
    jsonMetric("verify_cold_per_sec", cold_rate, "1/s");
    jsonMetric("verify_cache_speedup", cached_rate / cold_rate, "x");

    // ---- Raw group exponentiation ----
    // Chained x <- x^e mod p with fresh 256-bit exponents, so every
    // result feeds the next power and none can be elided.
    constexpr int kModExps = 2000;
    // Exponents come from the non-crypto Rng so the crypto counters
    // printed below still describe the sessions alone.
    Rng exp_rng(0x6d6f64657870);
    std::vector<crypto::U256> exps;
    for (int i = 0; i < kModExps; ++i)
        exps.push_back(*crypto::U256::fromBytes(exp_rng.bytes(32)));
    crypto::U256 x = crypto::u256(crypto::kGroupGenerator);
    t0 = std::chrono::steady_clock::now();
    for (const crypto::U256 &e : exps)
        x = crypto::kGroupField.pow(x, e);
    double modexp_rate = kModExps / secondsSince(t0);
    if (x == crypto::u256(0))
        ++failures; // a unit of Z_p^* never powers to zero

    Table t4("Group exponentiation (256-bit exponent mod p)",
             {"Metric", "Value"});
    t4.addRow({"modexps/sec (host wall)", fmt("%.0f", modexp_rate)});
    t4.print();
    jsonMetric("modexp_per_sec", modexp_rate, "1/s");

    // ---- Deterministic rejection gates ----
    attest::AttestationReport forged = report;
    forged.measurement[0] ^= 1;
    bool forged_rejected =
        cached.verify(forged, chain) ==
        attest::VerifyResult::BadReportSignature;
    if (!forged_rejected)
        ++failures;

    attest::PlatformKeys stale(seed, attest::kDefaultTcbVersion - 1);
    attest::AttestationReport stale_report =
        stale.signReport(0, measurement, rd);
    bool rollback_rejected =
        attest::Verifier(stale.rootPublic(), policy)
            .verify(stale_report, stale.certChain()) ==
        attest::VerifyResult::TcbRolledBack;
    if (!rollback_rejected)
        ++failures;

    Table t3("CI gates", {"Gate", "Result"});
    t3.addRow({fmt("%d/%d sessions verified, generations exact",
                   established, kSessions),
               established == kSessions ? "pass" : "FAIL"});
    t3.addRow({"forged report rejected as bad-report-signature",
               forged_rejected ? "pass" : "FAIL"});
    t3.addRow({"stale TCB rejected as tcb-rolled-back",
               rollback_rejected ? "pass" : "FAIL"});
    t3.print();
    jsonMetric("gate_failures", failures);

    printVmStats(vm.machine(), vm.kernel());
    traceFinish(vm.machine());

    note("");
    if (failures == 0) {
        note("All attestation gates green.");
    } else {
        note(fmt("%d attestation gate failure(s)!", failures));
    }
    return failures == 0 ? 0 : 1;
}
