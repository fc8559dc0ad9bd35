#include "common/kv_record.h"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "common/crc32.h"

namespace cyclone {

namespace {

/** Bytes that would split or end a token, and the escape byte itself,
 *  travel as %XX. */
std::string
escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (u <= ' ' || u == '%' || u == 0x7f) {
            char buf[4];
            std::snprintf(buf, sizeof buf, "%%%02X", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
unescape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '%') {
            out += s[i];
            continue;
        }
        const std::string code = s.substr(i + 1, 2);
        if (code.size() != 2 ||
            !std::isxdigit(static_cast<unsigned char>(code[0])) ||
            !std::isxdigit(static_cast<unsigned char>(code[1])))
            throw std::runtime_error("bad escape in record value: " + s);
        out += static_cast<char>(std::stoi(code, nullptr, 16));
        i += 2;
    }
    return out;
}

[[noreturn]] void
badField(const std::string& key, const std::string& raw)
{
    throw std::runtime_error("record field " + key +
                             ": malformed value '" + raw + "'");
}

uint64_t
parseUnsigned(const std::string& key, const std::string& raw, int base)
{
    // stoull accepts (and wraps) a sign, and stops at trailing garbage:
    // both are malformed here.
    if (raw.empty() || raw.front() == '-' || raw.front() == '+')
        badField(key, raw);
    try {
        size_t pos = 0;
        const uint64_t v = std::stoull(raw, &pos, base);
        if (pos != raw.size())
            badField(key, raw);
        return v;
    } catch (const std::logic_error&) {
        badField(key, raw);
    }
}

double
parseReal(const std::string& key, const std::string& raw)
{
    try {
        size_t pos = 0;
        const double v = std::stod(raw, &pos);
        if (pos != raw.size())
            badField(key, raw);
        return v;
    } catch (const std::logic_error&) {
        badField(key, raw);
    }
}

/** Verify and strip the trailing crc line of `text`, returning the
 *  payload; throws CorruptRecordError when it is absent, malformed or
 *  wrong. */
std::string
checkCrcLine(const std::string& text, const char* what)
{
    size_t pos = text.rfind("\ncrc ");
    if (pos != std::string::npos) {
        pos += 1;
    } else if (text.rfind("crc ", 0) == 0) {
        pos = 0;
    } else {
        throw CorruptRecordError(std::string(what) +
                                 ": missing crc line (truncated?)");
    }
    std::istringstream line(text.substr(pos));
    std::string tag, digits, extra;
    uint32_t want = 0;
    bool parsed = (line >> tag >> digits) && !(line >> extra);
    if (parsed) {
        try {
            size_t used = 0;
            want = static_cast<uint32_t>(std::stoul(digits, &used, 16));
            parsed = used == digits.size();
        } catch (...) {
            parsed = false;
        }
    }
    if (!parsed)
        throw CorruptRecordError(std::string(what) +
                                 ": malformed crc line");
    const std::string payload = text.substr(0, pos);
    if (crc32(payload) != want)
        throw CorruptRecordError(std::string(what) +
                                 ": checksum mismatch");
    return payload;
}

} // namespace

std::string
withCrcLine(std::string text)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", crc32(text));
    text += "crc ";
    text += buf;
    text += "\n";
    return text;
}

void
KvRecord::put(const std::string& key, const FieldValue& value)
{
    std::string raw;
    if (const size_t* n = std::get_if<size_t>(&value)) {
        raw = std::to_string(*n);
    } else if (const double* d = std::get_if<double>(&value)) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", *d);
        raw = buf;
    } else if (const bool* b = std::get_if<bool>(&value)) {
        raw.push_back(*b ? '1' : '0');
    } else {
        raw = escape(std::get<std::string>(value));
    }
    fields_.emplace_back(key, std::move(raw));
}

void
KvRecord::putHex(const std::string& key, uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    fields_.emplace_back(key, buf);
}

const std::string*
KvRecord::find(const std::string& key) const
{
    for (const auto& [k, v] : fields_)
        if (k == key)
            return &v;
    return nullptr;
}

uint64_t
KvRecord::count(const std::string& key) const
{
    const std::string* raw = find(key);
    return raw != nullptr ? parseUnsigned(key, *raw, 10) : 0;
}

uint64_t
KvRecord::hex(const std::string& key) const
{
    const std::string* raw = find(key);
    return raw != nullptr ? parseUnsigned(key, *raw, 16) : 0;
}

void
KvRecord::decode(const std::string& key, const std::string& raw,
                 FieldValue& v)
{
    if (std::holds_alternative<size_t>(v)) {
        v = static_cast<size_t>(parseUnsigned(key, raw, 10));
    } else if (std::holds_alternative<double>(v)) {
        v = parseReal(key, raw);
    } else if (std::holds_alternative<bool>(v)) {
        if (raw != "0" && raw != "1")
            badField(key, raw);
        v = raw == "1";
    } else {
        v = unescape(raw);
    }
}

std::string
KvRecord::line() const
{
    std::string out = tag_;
    for (const auto& [k, v] : fields_) {
        out += ' ';
        out += k;
        out += '=';
        out += v;
    }
    return out;
}

KvRecord
KvRecord::parse(const std::string& line)
{
    std::istringstream in(line);
    std::string token;
    in >> token;
    if (token.find('=') != std::string::npos)
        throw std::runtime_error("record without a tag: " + line);
    KvRecord rec(token);
    while (in >> token) {
        const size_t eq = token.find('=');
        if (eq == 0 || eq == std::string::npos)
            throw std::runtime_error("malformed record token '" + token +
                                     "'");
        std::string key = token.substr(0, eq);
        if (rec.find(key) != nullptr)
            throw std::runtime_error("repeated record key '" + key + "'");
        rec.fields_.emplace_back(std::move(key), token.substr(eq + 1));
    }
    return rec;
}

std::string
formatRecords(const char* magic, const std::vector<KvRecord>& records)
{
    std::string out = magic;
    out += '\n';
    for (const KvRecord& rec : records) {
        out += rec.line();
        out += '\n';
    }
    return withCrcLine(std::move(out));
}

std::vector<KvRecord>
parseRecords(const std::string& text, const char* magic, const char* what)
{
    const std::string payload = checkCrcLine(text, what);
    std::istringstream in(payload);
    std::string line;
    if (!std::getline(in, line) || line != magic)
        throw std::runtime_error(std::string("not a ") + what +
                                 " (bad magic line)");
    std::vector<KvRecord> records;
    while (std::getline(in, line))
        if (line.find_first_not_of(" \t\r") != std::string::npos)
            records.push_back(KvRecord::parse(line));
    return records;
}

} // namespace cyclone
