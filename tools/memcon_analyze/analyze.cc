#include "analyze.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "concurrency.hh"
#include "layering.hh"
#include "lint.hh"
#include "registry.hh"
#include "units_pass.hh"

namespace memcon::analyze
{
namespace
{
namespace fs = std::filesystem;

bool
isCppSource(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp";
}

bool
isImplFile(const std::string &path)
{
    fs::path p(path);
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp";
}

/** Candidate header paths for an implementation file. */
std::vector<std::string>
headerCandidates(const std::string &path)
{
    fs::path p(path);
    return {p.replace_extension(".hh").string(),
            fs::path(path).replace_extension(".hpp").string()};
}

/**
 * Expand files/directories to every C++ source under them
 * (.cc/.hh/.cpp/.hpp), recursively, sorted.
 */
std::vector<std::string>
expandPaths(const std::vector<std::string> &paths)
{
    std::vector<std::string> files;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 !ec && it != fs::recursive_directory_iterator();
                 it.increment(ec)) {
                if (it->is_regular_file(ec) &&
                    isCppSource(it->path()))
                    files.push_back(it->path().string());
            }
        } else {
            files.push_back(p);
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()),
                files.end());
    return files;
}

void
jsonEscape(std::ostringstream &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"':
            out << "\\\"";
            break;
        case '\\':
            out << "\\\\";
            break;
        case '\n':
            out << "\\n";
            break;
        case '\t':
            out << "\\t";
            break;
        case '\r':
            out << "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out << buf;
            } else {
                out << c;
            }
        }
    }
}

/**
 * The shared engine: parse every source, pair companions, run each
 * pass, apply allowances per file, filter rule selection, sort.
 */
AnalyzeResult
run(const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &options,
    const std::map<std::string, std::string> &extraCompanions)
{
    std::vector<SourceFile> files;
    files.reserve(sources.size());
    for (const auto &[path, text] : sources)
        files.push_back(parseSource(path, text));

    std::map<std::string, std::size_t> byPath;
    for (std::size_t i = 0; i < files.size(); ++i)
        byPath[files[i].path] = i;

    // Parse the disk-sibling headers that were not themselves part
    // of the scan (single-file invocations).
    std::vector<SourceFile> extra;
    std::map<std::string, std::size_t> extraByPath;
    for (const auto &[path, text] : extraCompanions) {
        extraByPath[path] = extra.size();
        extra.push_back(parseSource(path, text));
    }

    std::vector<Violation> raw;
    for (std::size_t i = 0; i < files.size(); ++i) {
        const SourceFile &f = files[i];
        const SourceFile *companion = nullptr;
        if (isImplFile(f.path)) {
            for (const std::string &h : headerCandidates(f.path)) {
                auto it = byPath.find(h);
                if (it != byPath.end()) {
                    companion = &files[it->second];
                    break;
                }
                auto ex = extraByPath.find(h);
                if (ex != extraByPath.end()) {
                    companion = &extra[ex->second];
                    break;
                }
            }
        }

        std::vector<Violation> perFile = f.markerViolations;
        for (auto &&pass :
             {lint::determinismPass(f, companion),
              concurrencyPass(f, companion), unitsPass(f)})
            perFile.insert(perFile.end(), pass.begin(), pass.end());
        std::stable_sort(perFile.begin(), perFile.end(),
                         [](const Violation &a, const Violation &b) {
                             return a.line < b.line;
                         });
        perFile = applyAllowances(std::move(perFile), f.allowances);
        raw.insert(raw.end(), perFile.begin(), perFile.end());
    }

    // Layering sees the whole set; its violations are attributed to
    // the including file, so suppress with that file's allowances.
    std::vector<Violation> layer = layeringPass(files);
    for (Violation &v : layer) {
        auto it = byPath.find(v.file);
        std::vector<Violation> one;
        one.push_back(std::move(v));
        if (it != byPath.end())
            one = applyAllowances(std::move(one),
                                  files[it->second].allowances);
        raw.insert(raw.end(), one.begin(), one.end());
    }

    if (!options.only.empty()) {
        std::set<std::string> keep(options.only.begin(),
                                   options.only.end());
        std::erase_if(raw, [&](const Violation &v) {
            return !keep.count(v.rule);
        });
    }
    if (!options.skip.empty()) {
        std::set<std::string> drop(options.skip.begin(),
                                   options.skip.end());
        std::erase_if(raw, [&](const Violation &v) {
            return drop.count(v.rule) > 0;
        });
    }

    std::sort(raw.begin(), raw.end(),
              [](const Violation &a, const Violation &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });

    AnalyzeResult result;
    result.violations = std::move(raw);
    result.filesScanned = files.size();
    return result;
}

} // namespace

AnalyzeResult
analyzeSources(
    const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &options)
{
    return run(sources, options, {});
}

AnalyzeResult
analyzePaths(const std::vector<std::string> &paths,
             const AnalyzeOptions &options)
{
    std::vector<std::pair<std::string, std::string>> sources;
    std::set<std::string> inSet;
    AnalyzeResult result;
    for (const std::string &file : expandPaths(paths)) {
        std::string text;
        if (!readFileText(file, &text)) {
            result.violations.push_back(
                {file, 0, "io", "cannot open file"});
            continue;
        }
        inSet.insert(file);
        sources.emplace_back(file, std::move(text));
    }

    std::map<std::string, std::string> extraCompanions;
    for (const auto &[path, text] : sources) {
        if (!isImplFile(path))
            continue;
        for (const std::string &h : headerCandidates(path)) {
            if (inSet.count(h))
                break;
            std::string htext;
            if (readFileText(h, &htext)) {
                extraCompanions.emplace(h, std::move(htext));
                break;
            }
        }
    }

    AnalyzeResult analyzed = run(sources, options, extraCompanions);
    analyzed.violations.insert(analyzed.violations.begin(),
                               result.violations.begin(),
                               result.violations.end());
    return analyzed;
}

std::vector<AllowanceSite>
listAllowances(
    const std::vector<std::pair<std::string, std::string>> &sources,
    const AnalyzeOptions &options)
{
    const std::set<std::string> keep(options.only.begin(),
                                     options.only.end());
    const std::set<std::string> drop(options.skip.begin(),
                                     options.skip.end());
    std::vector<AllowanceSite> sites;
    for (const auto &[path, text] : sources) {
        const SourceFile file = parseSource(path, text);
        for (const Allowance &a : file.allowances) {
            if (!keep.empty() && !keep.count(a.rule))
                continue;
            if (drop.count(a.rule))
                continue;
            sites.push_back({file.path, a.line, a.rule});
        }
    }
    std::sort(sites.begin(), sites.end(),
              [](const AllowanceSite &a, const AllowanceSite &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return sites;
}

std::vector<AllowanceSite>
listAllowancesInPaths(const std::vector<std::string> &paths,
                      const AnalyzeOptions &options)
{
    std::vector<std::pair<std::string, std::string>> sources;
    for (const std::string &file : expandPaths(paths)) {
        std::string text;
        if (readFileText(file, &text))
            sources.emplace_back(file, std::move(text));
    }
    return listAllowances(sources, options);
}

std::string
formatAllowances(const std::vector<AllowanceSite> &sites)
{
    std::ostringstream out;
    std::map<std::string, std::size_t> perRule;
    for (const AllowanceSite &s : sites) {
        out << s.file << ":" << s.line << ": lint:allow(" << s.rule
            << ")\n";
        ++perRule[s.rule];
    }
    for (const auto &[rule, count] : perRule)
        out << "  " << rule << ": " << count << "\n";
    out << "memcon_analyze: " << sites.size() << " allowance(s)\n";
    return out.str();
}

std::string
formatAllowancesJson(const std::vector<AllowanceSite> &sites)
{
    std::ostringstream out;
    out << "{\n  \"allowances\": [";
    bool first = true;
    for (const AllowanceSite &s : sites) {
        out << (first ? "\n" : ",\n") << "    {\"file\": \"";
        jsonEscape(out, s.file);
        out << "\", \"line\": " << s.line << ", \"rule\": \"";
        jsonEscape(out, s.rule);
        out << "\"}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "],\n  \"total\": " << sites.size()
        << "\n}\n";
    return out.str();
}

std::string
formatText(const AnalyzeResult &result)
{
    std::ostringstream out;
    for (const Violation &v : result.violations)
        out << v.file << ":" << v.line << ": [" << v.rule << "] "
            << v.message << "\n";
    return out.str();
}

std::string
formatJson(const AnalyzeResult &result)
{
    std::ostringstream out;
    out << "{\n  \"violations\": [";
    bool first = true;
    for (const Violation &v : result.violations) {
        out << (first ? "\n" : ",\n") << "    {\"file\": \"";
        jsonEscape(out, v.file);
        out << "\", \"line\": " << v.line << ", \"rule\": \"";
        jsonEscape(out, v.rule);
        out << "\", \"severity\": \"error\", \"message\": \"";
        jsonEscape(out, v.message);
        out << "\"}";
        first = false;
    }
    out << (first ? "" : "\n  ") << "],\n  \"files_scanned\": "
        << result.filesScanned << "\n}\n";
    return out.str();
}

bool
readFileText(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    *out = buf.str();
    return true;
}

} // namespace memcon::analyze
