#include "layering.hh"

#include <map>
#include <set>
#include <sstream>

namespace memcon::analyze
{
namespace
{

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> segs;
    std::string cur;
    for (char c : path) {
        if (c == '/' || c == '\\') {
            if (!cur.empty())
                segs.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        segs.push_back(cur);
    return segs;
}

bool
isSrcComponent(const std::string &s)
{
    return s == "common" || s == "dram" || s == "core" ||
           s == "failure" || s == "trace" || s == "sim" ||
           s == "service";
}

/** Path of `file`'s directory, with a trailing '/'. */
std::string
dirOf(const std::string &path)
{
    std::size_t slash = path.find_last_of("/\\");
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

} // namespace

std::string
componentOf(const std::string &path)
{
    std::vector<std::string> segs = splitPath(path);
    for (std::size_t i = 0; i < segs.size(); ++i) {
        const std::string &s = segs[i];
        if (s == "src" && i + 1 < segs.size() &&
            isSrcComponent(segs[i + 1]))
            return segs[i + 1];
        if (s == "bench" || s == "tools" || s == "examples")
            return s;
        if (s == "tests")
            return {};
    }
    return {};
}

int
componentRank(const std::string &component)
{
    static const std::map<std::string, int> ranks = {
        {"common", 0},  {"dram", 1},    {"failure", 2},
        {"trace", 2},   {"sim", 3},     {"core", 4},
        {"service", 5}, {"bench", 6},   {"tools", 6},
        {"examples", 6}};
    auto it = ranks.find(component);
    return it == ranks.end() ? -1 : it->second;
}

std::vector<Violation>
layeringPass(const std::vector<SourceFile> &files)
{
    std::vector<Violation> raw;

    // --- Back-edges against the component DAG -----------------------
    for (const SourceFile &f : files) {
        int srcRank = componentRank(componentOf(f.path));
        if (srcRank < 0)
            continue; // tests/ and unranked trees are exempt
        for (const auto &[line, inc] : f.includes) {
            // An include path's leading segment names the target
            // component when it is one ("dram/timing.hh"); sibling
            // includes ("lint.hh") stay inside the component.
            std::vector<std::string> segs = splitPath(inc);
            if (segs.size() < 2 || !isSrcComponent(segs[0]))
                continue;
            int tgtRank = componentRank(segs[0]);
            if (tgtRank > srcRank)
                raw.push_back(
                    {f.path, line, "layering",
                     "back-edge: " + componentOf(f.path) +
                         " (rank " + std::to_string(srcRank) +
                         ") must not include '" + inc + "' from " +
                         segs[0] + " (rank " +
                         std::to_string(tgtRank) +
                         "); the DAG is common -> dram -> "
                         "{failure, trace} -> sim -> core -> service "
                         "-> bench/tools/examples"});
        }
    }

    // --- Cycles in the file-level include graph ---------------------
    // Resolve includes the way the build does: relative to src/
    // first, then as a sibling of the including file.
    std::map<std::string, std::size_t> byRel, byPath;
    for (std::size_t i = 0; i < files.size(); ++i) {
        const std::string &p = files[i].path;
        byPath[p] = i;
        std::size_t pos = p.rfind("src/");
        if (pos != std::string::npos)
            byRel[p.substr(pos + 4)] = i;
    }

    struct Edge
    {
        std::size_t target;
        unsigned line;
    };
    std::vector<std::vector<Edge>> graph(files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
        for (const auto &[line, inc] : files[i].includes) {
            auto rel = byRel.find(inc);
            if (rel != byRel.end()) {
                graph[i].push_back({rel->second, line});
                continue;
            }
            auto sib = byPath.find(dirOf(files[i].path) + inc);
            if (sib != byPath.end())
                graph[i].push_back({sib->second, line});
        }
    }

    // Iterative DFS, three colors; a grey target closes a cycle.
    enum Color : unsigned char { White, Grey, Black };
    std::vector<Color> color(files.size(), White);
    std::set<std::set<std::size_t>> reported;

    struct Frame
    {
        std::size_t node;
        std::size_t next = 0;
    };
    for (std::size_t root = 0; root < files.size(); ++root) {
        if (color[root] != White)
            continue;
        std::vector<Frame> stack{{root}};
        color[root] = Grey;
        while (!stack.empty()) {
            Frame &top = stack.back();
            if (top.next >= graph[top.node].size()) {
                color[top.node] = Black;
                stack.pop_back();
                continue;
            }
            Edge e = graph[top.node][top.next++];
            if (color[e.target] == White) {
                color[e.target] = Grey;
                stack.push_back({e.target});
            } else if (color[e.target] == Grey) {
                // Reconstruct the chain from the DFS stack.
                std::size_t from = 0;
                while (from < stack.size() &&
                       stack[from].node != e.target)
                    ++from;
                std::set<std::size_t> key;
                std::ostringstream chain;
                for (std::size_t k = from; k < stack.size(); ++k) {
                    key.insert(stack[k].node);
                    chain << files[stack[k].node].path << " -> ";
                }
                chain << files[e.target].path;
                if (reported.insert(key).second)
                    raw.push_back({files[top.node].path, e.line,
                                   "layering",
                                   "include cycle: " + chain.str()});
            }
        }
    }

    return raw;
}

} // namespace memcon::analyze
