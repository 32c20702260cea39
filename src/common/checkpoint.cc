#include "common/checkpoint.hh"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"

namespace memcon::ckpt
{

namespace
{

/**
 * Slicing-by-8 tables for the reflected 0xEDB88320 polynomial:
 * row 0 is the classic byte table, row k advances a byte through k
 * further zero bytes, so one step folds in eight input bytes.
 */
struct CrcTables
{
    std::uint32_t t[8][256];

    constexpr CrcTables() : t{}
    {
        for (std::uint32_t n = 0; n < 256; ++n) {
            std::uint32_t c = n;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][n] = c;
        }
        for (int k = 1; k < 8; ++k)
            for (std::uint32_t n = 0; n < 256; ++n)
                t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFF];
    }
};

constexpr CrcTables kCrc;

std::uint32_t
loadLe32(const unsigned char *p)
{
    return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
           std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

bool
fail(std::string *reason, const std::string &why)
{
    if (reason)
        *reason = why;
    return false;
}

const char kCheckpointFormat[] = "MEMCON-CKPT v2";

std::string
formatHeader(const std::string &format, const CampaignFingerprint &fp)
{
    return format + " " + fp.describe();
}

/** Inverse of formatHeader(), exact: anything formatHeader() would
 *  not have written - another magic or version, a non-canonical
 *  field, trailing bytes - is rejected. */
bool
parseHeader(const std::string &payload, const std::string &format,
            CampaignFingerprint *fp)
{
    const std::string prefix = format + " artifact=";
    if (payload.compare(0, prefix.size(), prefix) != 0)
        return false;
    const std::size_t space = payload.find(' ', prefix.size());
    if (space == std::string::npos)
        return false;
    fp->artifact = payload.substr(prefix.size(), space - prefix.size());
    int quick = 0;
    if (std::sscanf(payload.c_str() + space,
                    " seed=%" SCNu64 " points=%" SCNu64
                    " quick=%d labels=%8x",
                    &fp->campaignSeed, &fp->pointCount, &quick,
                    &fp->labelsCrc) != 4)
        return false;
    fp->quick = quick != 0;
    return payload == formatHeader(format, *fp);
}

std::string
formatFooter(std::size_t lines, std::uint32_t total)
{
    return strprintf("END count=%zu total=%08x", lines, total);
}

} // namespace

std::uint32_t
crc32(const void *data, std::size_t size, std::uint32_t seed)
{
    const auto &t = kCrc.t;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (; size >= 8; p += 8, size -= 8) {
        const std::uint32_t lo = loadLe32(p) ^ c;
        const std::uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
            t[0][hi >> 24];
    }
    for (; size > 0; ++p, --size)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

std::uint32_t
crc32(const std::string &s)
{
    return crc32(s.data(), s.size());
}

std::string
sealLine(const std::string &payload)
{
    return payload + strprintf(" #%08x\n", crc32(payload));
}

bool
unsealLine(const std::string &line, std::string *payload)
{
    std::size_t mark = line.rfind(" #");
    if (mark == std::string::npos || line.size() - mark != 10)
        return false;
    std::uint32_t stored = 0;
    if (std::sscanf(line.c_str() + mark + 2, "%8x", &stored) != 1)
        return false;
    std::string body = line.substr(0, mark);
    if (crc32(body) != stored)
        return false;
    *payload = std::move(body);
    return true;
}

bool
atomicWriteFile(const std::string &path, const std::string &content,
                std::string *error)
{
    std::string tmp =
        path + strprintf(".tmp.%ld", static_cast<long>(::getpid()));
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return fail(error, "open '" + tmp + "' failed: " + errnoString());

    const char *p = content.data();
    std::size_t left = content.size();
    while (left > 0) {
        ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            std::string why = "write failed: " + errnoString();
            ::close(fd);
            ::unlink(tmp.c_str());
            return fail(error, why);
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    // Flush before rename: the rename must never publish a file whose
    // bytes are still only in the page cache of a dying process.
    if (::fsync(fd) != 0 || ::close(fd) != 0) {
        std::string why = "fsync/close failed: " + errnoString();
        ::unlink(tmp.c_str());
        return fail(error, why);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        std::string why = "rename to '" + path + "' failed: " + errnoString();
        ::unlink(tmp.c_str());
        return fail(error, why);
    }
    return true;
}

bool
CampaignFingerprint::matches(const CampaignFingerprint &other) const
{
    return artifact == other.artifact &&
           campaignSeed == other.campaignSeed &&
           pointCount == other.pointCount && quick == other.quick &&
           labelsCrc == other.labelsCrc;
}

std::string
CampaignFingerprint::describe() const
{
    return strprintf("artifact=%s seed=%" PRIu64 " points=%" PRIu64
                     " quick=%d labels=%08x",
                     artifact.c_str(), campaignSeed, pointCount,
                     quick ? 1 : 0, labelsCrc);
}

FingerprintMismatch::FingerprintMismatch(
    const CampaignFingerprint &found_fp,
    const CampaignFingerprint &expected_fp)
    : std::runtime_error("fingerprint mismatch\n  found:    " +
                         found_fp.describe() +
                         "\n  expected: " + expected_fp.describe()),
      found(found_fp), expected(expected_fp)
{
}

void
requireFingerprintMatch(const CampaignFingerprint &found,
                        const CampaignFingerprint &expected)
{
    if (!found.matches(expected))
        throw FingerprintMismatch(found, expected);
}

bool
readFile(const std::string &path, std::string *out, std::string *reason)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return fail(reason, "cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

SealedWriter::SealedWriter(const std::string &format,
                           const CampaignFingerprint &fp)
{
    panic_if(fp.artifact.find(' ') != std::string::npos,
             "artifact name '%s' must not contain spaces",
             fp.artifact.c_str());
    add(formatHeader(format, fp));
}

void
SealedWriter::add(const std::string &payload)
{
    body += sealLine(payload);
    ++lines;
}

std::string
SealedWriter::finish() &&
{
    body += sealLine(formatFooter(lines, crc32(body)));
    return std::move(body);
}

bool
readSealedFile(const std::string &content, const std::string &format,
               SealedRecords *out, std::string *reason)
{
    if (content.empty() || content.back() != '\n')
        return fail(reason, "file is empty or does not end with a "
                            "newline (truncated write?)");

    std::vector<std::string> payloads;
    std::size_t footer_start = 0;
    for (std::size_t pos = 0; pos < content.size();) {
        // content ends with '\n', so eol is always found.
        const std::size_t eol = content.find('\n', pos);
        std::string payload;
        if (!unsealLine(content.substr(pos, eol - pos), &payload))
            return fail(reason, strprintf("line %zu fails its CRC seal "
                                          "(torn or corrupted record)",
                                          payloads.size() + 1));
        payloads.push_back(std::move(payload));
        footer_start = pos;
        pos = eol + 1;
    }

    SealedRecords file;
    if (!parseHeader(payloads.front(), format, &file.fingerprint))
        return fail(reason, "line 1 is not a '" + format + "' header");

    std::size_t count = 0;
    std::uint32_t total = 0;
    const std::string &last = payloads.back();
    if (payloads.size() < 2 ||
        std::sscanf(last.c_str(), "END count=%zu total=%8x", &count,
                    &total) != 2 ||
        last != formatFooter(count, total))
        return fail(reason, "last line is not an END footer "
                            "(truncated write?)");
    if (count != payloads.size() - 1)
        return fail(reason, strprintf("END count %zu != %zu lines above "
                                      "it",
                                      count, payloads.size() - 1));
    if (total != crc32(content.data(), footer_start))
        return fail(reason, "END running CRC mismatch (file corrupted)");

    for (std::size_t i = 1; i + 1 < payloads.size(); ++i) {
        if (payloads[i].compare(0, 4, "END ") == 0)
            return fail(reason, strprintf("line %zu is an END footer "
                                          "before the last line",
                                          i + 1));
    }
    payloads.pop_back();
    payloads.erase(payloads.begin());
    file.records = std::move(payloads);
    *out = std::move(file);
    return true;
}

CheckpointWriter::CheckpointWriter(std::string file_path,
                                   const CampaignFingerprint &fp,
                                   std::vector<TaskRecord> existing)
    : path(std::move(file_path)), file(kCheckpointFormat, fp)
{
    for (const TaskRecord &r : existing)
        add(r);
    flush();
}

void
CheckpointWriter::append(const TaskRecord &record)
{
    add(record);
    flush();
}

void
CheckpointWriter::add(const TaskRecord &record)
{
    file.add(strprintf("T %" PRIu64 " ", record.index) + record.metrics);
    ++count;
}

void
CheckpointWriter::flush()
{
    std::string error;
    if (!atomicWriteFile(path, SealedWriter(file).finish(), &error))
        fatal("checkpoint write to '%s' failed: %s", path.c_str(),
              error.c_str());
}

bool
loadCheckpoint(const std::string &path, LoadedCheckpoint *out,
               std::string *reason)
{
    std::string content;
    SealedRecords file;
    if (!readFile(path, &content, reason) ||
        !readSealedFile(content, kCheckpointFormat, &file, reason))
        return false;

    LoadedCheckpoint loaded;
    loaded.fingerprint = file.fingerprint;
    for (std::size_t i = 0; i < file.records.size(); ++i) {
        const std::string &payload = file.records[i];
        TaskRecord rec;
        int consumed = 0;
        if (std::sscanf(payload.c_str(), "T %" SCNu64 " %n", &rec.index,
                        &consumed) != 1 ||
            consumed <= 0)
            return fail(reason, strprintf("malformed task record at "
                                          "line %zu",
                                          i + 2));
        rec.metrics = payload.substr(static_cast<std::size_t>(consumed));
        loaded.records.push_back(std::move(rec));
    }
    if (out)
        *out = std::move(loaded);
    return true;
}

std::string
artifactFooter(const std::string &body)
{
    return strprintf("  \"footer\": {\"crc32\": \"%08x\", "
                     "\"bytes\": %zu}\n}\n",
                     crc32(body), body.size());
}

bool
validateArtifactJson(const std::string &content, std::string *reason)
{
    // The emitter writes body + artifactFooter(body); recompute the
    // footer from everything before its own (last) occurrence and
    // require byte equality - any truncation or edit breaks it.
    const std::string marker = "\n  \"footer\": {\"crc32\": \"";
    std::size_t pos = content.rfind(marker);
    if (pos == std::string::npos)
        return fail(reason,
                    "no footer found (truncated or pre-footer file)");
    std::string body = content.substr(0, pos + 1);
    std::string expected = artifactFooter(body);
    if (content.size() != body.size() + expected.size() ||
        content.compare(body.size(), expected.size(), expected) != 0)
        return fail(reason, "footer checksum/byte-count mismatch "
                            "(torn or corrupted artifact)");
    return true;
}

bool
validateArtifactFile(const std::string &path, std::string *reason)
{
    std::string content;
    return readFile(path, &content, reason) &&
           validateArtifactJson(content, reason);
}

} // namespace memcon::ckpt
