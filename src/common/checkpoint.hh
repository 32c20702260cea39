/**
 * @file
 * Durable campaign artifacts: checksummed checkpoints and torn-file
 * rejection (DESIGN.md §15).
 *
 * Long profiling campaigns must survive process death without
 * invalidating results, and a file a dying process was mid-write in
 * must never be mistaken for a complete one. Three pieces enforce
 * that:
 *
 *  * atomicWriteFile() - every durable artifact (checkpoint and
 *    BENCH_*.json alike) is written to a temp file in the target
 *    directory, flushed, and rename()d into place, so readers only
 *    ever observe the old complete file or the new complete file.
 *
 *  * The sealed-file format - every durable record file (the
 *    campaign checkpoint "MEMCON-CKPT v2" and the memcond snapshot
 *    "MEMCOND-SVC v6") is CRC32-sealed lines: a "<MAGIC> v<N>"
 *    fingerprint header binding the file to (artifact, seed, point
 *    count, quick flag, label CRC), the record lines, and an
 *    "END count=<lines above> total=<crc of those bytes>" footer.
 *    SealedWriter writes it; readSealedFile() is the one strict
 *    reader: a file truncated or corrupted at ANY byte is rejected,
 *    never parsed as a shorter valid file.
 *
 *  * The campaign checkpoint - one sealed "T <index> <metrics>"
 *    record per completed sweep task, with the metrics in the
 *    canonical %.17g digest serialization.
 *
 *  * The BENCH_*.json footer - the emitter ends every artifact with
 *    a "footer" object carrying the CRC32 and byte count of
 *    everything before it; validateArtifactJson() recomputes both,
 *    so downstream tooling can reject a torn artifact instead of
 *    charting half a campaign.
 */

#ifndef MEMCON_COMMON_CHECKPOINT_HH
#define MEMCON_COMMON_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace memcon::ckpt
{

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320), the usual check value
 *  crc32("123456789") == 0xCBF43926. */
std::uint32_t crc32(const void *data, std::size_t size,
                    std::uint32_t seed = 0);
std::uint32_t crc32(const std::string &s);

/**
 * crc32() of a sequence of 64-bit words, each little-endian, taken in
 * one pass: the words gather in a stack buffer that is flushed by
 * chained calls, since crc32(A || B) == crc32(B, crc32(A)).
 */
class WordCrc
{
  public:
    void
    add(std::uint64_t v)
    {
        if (used == sizeof(buf))
            flush();
        for (int i = 0; i < 8; ++i)
            buf[used++] = static_cast<unsigned char>(v >> (8 * i));
    }

    /** The CRC of every word added so far. */
    std::uint32_t
    value()
    {
        flush();
        return crc;
    }

  private:
    void
    flush()
    {
        crc = crc32(buf, used, crc);
        used = 0;
    }

    unsigned char buf[512];
    std::size_t used = 0;
    std::uint32_t crc = 0;
};

/**
 * "<payload> #<8-hex-crc>\n" - the self-checking line format every
 * durable record (campaign checkpoint, service snapshot) uses. A
 * reader that unseals each line rejects torn or bit-flipped records
 * without trusting any surrounding structure.
 */
std::string sealLine(const std::string &payload);

/**
 * Split one sealed line back into its payload, verifying the CRC.
 * Returns false if the seal is missing or does not match.
 */
bool unsealLine(const std::string &line, std::string *payload);

/**
 * Write `content` to `path` atomically: temp file in the same
 * directory, write, fsync, rename. On any failure the target is left
 * untouched (the temp file is unlinked) and `error` describes what
 * went wrong.
 */
bool atomicWriteFile(const std::string &path, const std::string &content,
                     std::string *error = nullptr);

/**
 * What binds a checkpoint to one specific campaign. Thread count and
 * wall clock are deliberately absent: the §9 determinism contract
 * makes them irrelevant to the metrics, so a campaign interrupted at
 * 8 threads may be resumed at 1 (or vice versa).
 */
struct CampaignFingerprint
{
    std::string artifact;          //!< bench identity, no spaces
    std::uint64_t campaignSeed = 0;
    std::uint64_t pointCount = 0;
    bool quick = false;
    std::uint32_t labelsCrc = 0;   //!< crc32 of all labels, '\n'-joined

    bool matches(const CampaignFingerprint &other) const;

    /** Human-readable form for mismatch diagnostics; also the body
     *  of every sealed file's header line. */
    std::string describe() const;
};

/**
 * Thrown by requireFingerprintMatch(): the error text carries both
 * describe() strings (found vs expected), so a resume failure names
 * exactly which field diverged instead of a bare "mismatch".
 */
class FingerprintMismatch : public std::runtime_error
{
  public:
    FingerprintMismatch(const CampaignFingerprint &found_fp,
                        const CampaignFingerprint &expected_fp);

    const CampaignFingerprint found;
    const CampaignFingerprint expected;
};

/** Throw FingerprintMismatch unless found matches expected. */
void requireFingerprintMatch(const CampaignFingerprint &found,
                             const CampaignFingerprint &expected);

/** Read a whole file into `out`; false with a reason if it cannot be
 *  opened. */
bool readFile(const std::string &path, std::string *out,
              std::string *reason = nullptr);

/**
 * Builds one sealed file in a single append pass: the
 * "<format> <fingerprint>" header, then add()ed record payloads,
 * each sealLine()d, then - from finish() - the END footer. `format`
 * is the file's magic and version, e.g. "MEMCON-CKPT v2".
 */
class SealedWriter
{
  public:
    SealedWriter(const std::string &format, const CampaignFingerprint &fp);

    void add(const std::string &payload);

    /** Append the END footer and hand over the complete file. */
    std::string finish() &&;

  private:
    std::string body;      //!< every sealed line so far
    std::size_t lines = 0; //!< lines in body, header included
};

/** What readSealedFile() accepted: header and footer stripped. */
struct SealedRecords
{
    CampaignFingerprint fingerprint;
    std::vector<std::string> records; //!< unsealed payloads, in order
};

/**
 * The one strict reader of SealedWriter output. Checks, in order:
 * the file is non-empty and ends in a newline; every line unseals;
 * line 1 is exactly the "<format>" header of some fingerprint; the
 * last line is exactly an END footer whose count equals the lines
 * above it (header included) and whose total is the CRC-32 of their
 * bytes; no earlier line is a footer. Returns false with a reason on
 * any deviation.
 */
bool readSealedFile(const std::string &content, const std::string &format,
                    SealedRecords *out, std::string *reason = nullptr);

/** One completed task: its index and canonical metrics line
 *  ("name=value;..." with %.17g doubles - the digest serialization,
 *  which round-trips doubles exactly). */
struct TaskRecord
{
    std::uint64_t index = 0;
    std::string metrics;
};

/**
 * Appends task records to a checkpoint file. Every append rewrites
 * the whole file through atomicWriteFile() with a fresh END footer,
 * so the on-disk checkpoint is complete and self-validating after
 * every record - a SIGKILL between appends loses at most the tasks
 * whose records were not yet written, never the file's integrity.
 */
class CheckpointWriter
{
  public:
    /**
     * @param path      checkpoint file to (re)write
     * @param fp        the campaign this checkpoint belongs to
     * @param existing  records carried over from a resumed checkpoint
     *
     * Writes the initial file (header + existing records + footer)
     * immediately; fatal on I/O failure - a campaign that cannot be
     * checkpointed must not pretend it is.
     */
    CheckpointWriter(std::string path, const CampaignFingerprint &fp,
                     std::vector<TaskRecord> existing = {});

    /** Append one record and atomically rewrite the file. */
    void append(const TaskRecord &record);

    std::size_t recordCount() const { return count; }
    const std::string &filePath() const { return path; }

  private:
    void add(const TaskRecord &record);
    void flush();

    std::string path;
    SealedWriter file;
    std::size_t count = 0;
};

/** A successfully validated checkpoint. */
struct LoadedCheckpoint
{
    CampaignFingerprint fingerprint;
    std::vector<TaskRecord> records;
};

/**
 * Strictly load `path` through readSealedFile(), then require every
 * record to be a "T <index> <metrics>" line. Returns false with a
 * reason on any deviation - including truncation at any byte. Pass a
 * null `out` to validate only.
 */
bool loadCheckpoint(const std::string &path, LoadedCheckpoint *out,
                    std::string *reason = nullptr);

/**
 * The torn-file guard for BENCH_*.json: given the artifact body (the
 * serialized JSON up to and including the line that closes the points
 * array, `  ],\n`), return the footer + closing brace that completes
 * the file: `  "footer": {"crc32": "xxxxxxxx", "bytes": N}\n}\n`.
 */
std::string artifactFooter(const std::string &body);

/**
 * Validate a complete BENCH_*.json artifact: the file must end with
 * exactly the footer artifactFooter() derives from everything before
 * it. A file truncated at any byte fails. Returns false with a
 * reason on rejection.
 */
bool validateArtifactJson(const std::string &content,
                          std::string *reason = nullptr);

/** validateArtifactJson() over a file on disk. */
bool validateArtifactFile(const std::string &path,
                          std::string *reason = nullptr);

} // namespace memcon::ckpt

#endif // MEMCON_COMMON_CHECKPOINT_HH
