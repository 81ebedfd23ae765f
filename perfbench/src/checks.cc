#include "checks.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pb {

namespace {

/** The hex value following " key=" in a record, or false. */
bool
field(const std::string &rec, const char *key, uint64_t &out, int base)
{
    std::string pat = std::string(" ") + key + "=";
    size_t pos = rec.find(pat);
    if (pos == std::string::npos)
        return false;
    const char *start = rec.c_str() + pos + pat.size();
    char *endp = nullptr;
    out = std::strtoull(start, &endp, base);
    return endp != start;
}

std::string
fmtErr(const char *f, uint64_t a, uint64_t b, uint64_t c = 0)
{
    char buf[200];
    std::snprintf(buf, sizeof(buf), f, (unsigned long long)a,
                  (unsigned long long)b, (unsigned long long)c);
    return buf;
}

/** Parse "audit(T.ms:SEQ)" out of a record; false if malformed. */
bool
parseRecordSeq(const std::string &rec, uint64_t &seq)
{
    size_t open = rec.find("audit(");
    if (open == std::string::npos)
        return false;
    size_t colon = rec.find(':', open);
    size_t close = rec.find(')', open);
    if (colon == std::string::npos || close == std::string::npos ||
        colon > close)
        return false;
    char *endp = nullptr;
    seq = std::strtoull(rec.c_str() + colon + 1, &endp, 10);
    return endp == rec.c_str() + close;
}

} // namespace

std::string
checkSeqRun(const std::vector<std::string> &records, uint64_t &next_seq)
{
    for (size_t i = 0; i < records.size(); ++i) {
        uint64_t seq = 0;
        if (!parseRecordSeq(records[i], seq))
            return fmtErr("record %llu: no sequence number", i, 0);
        if (seq != next_seq)
            return fmtErr("record %llu: sequence %llu, expected %llu", i,
                          seq, next_seq);
        ++next_seq;
    }
    return "";
}

std::string
checkAuditRound(const std::vector<ExpectedRecord> &expected,
                const std::vector<std::string> &got, uint64_t &next_seq)
{
    if (got.size() != expected.size())
        return fmtErr("round fetched %llu records, issued %llu audited "
                      "syscalls",
                      got.size(), expected.size());
    uint64_t seq = next_seq;
    std::string err = checkSeqRun(got, seq);
    if (!err.empty())
        return err;
    for (size_t i = 0; i < got.size(); ++i) {
        const ExpectedRecord &e = expected[i];
        uint64_t sysno = 0, pid = 0, a0 = 0, a2 = 0;
        if (!field(got[i], "syscall", sysno, 10) ||
            !field(got[i], "pid", pid, 10) || !field(got[i], "a0", a0, 16) ||
            !field(got[i], "a2", a2, 16))
            return fmtErr("record %llu: malformed", i, 0);
        if (sysno != e.sysno)
            return fmtErr("record %llu: syscall %llu, issued %llu", i, sysno,
                          e.sysno);
        if (pid != uint64_t(e.pid))
            return fmtErr("record %llu: pid %llu, issued %llu", i, pid,
                          uint64_t(e.pid));
        if (a0 != e.a0)
            return fmtErr("record %llu: a0 %llx, issued %llx", i, a0, e.a0);
        if (e.checkA2 && a2 != e.a2)
            return fmtErr("record %llu: a2 %llx, issued %llx", i, a2, e.a2);
    }
    next_seq = seq;
    return "";
}

std::string
checkResponse(const std::string &expected_body, const std::string &response)
{
    char header[96];
    std::snprintf(header, sizeof(header),
                  "HTTP/1.0 200 OK\r\nContent-Length: %zu\r\n\r\n",
                  expected_body.size());
    size_t hlen = std::strlen(header);
    if (response.size() != hlen + expected_body.size())
        return fmtErr("response of %llu bytes, expected %llu",
                      response.size(), hlen + expected_body.size());
    if (response.compare(0, hlen, header) != 0)
        return "response header differs";
    if (response.compare(hlen, std::string::npos, expected_body) != 0)
        return "response body differs from the document written";
    return "";
}

std::string
checkCallTotal(uint64_t expected_sum, uint64_t completed)
{
    if (completed != expected_sum)
        return fmtErr("fleet completed %llu calls, sessions drew %llu",
                      completed, expected_sum);
    return "";
}

std::string
checkFramesReturned(uint64_t before, uint64_t after)
{
    if (after != before)
        return fmtErr("frames in use %llu after release, %llu before fleet",
                      after, before);
    return "";
}

} // namespace pb
