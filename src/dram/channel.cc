#include "dram/channel.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hh"
#include "common/state_io.hh"

namespace memcon::dram
{

std::string
toString(Command cmd)
{
    switch (cmd) {
      case Command::Act:
        return "ACT";
      case Command::Pre:
        return "PRE";
      case Command::PreA:
        return "PREA";
      case Command::Rd:
        return "RD";
      case Command::RdA:
        return "RDA";
      case Command::Wr:
        return "WR";
      case Command::WrA:
        return "WRA";
      case Command::Ref:
        return "REF";
    }
    panic("unknown command");
}

const char *const Channel::kCommandNames[kNumCommands] = {
    "cmd.ACT", "cmd.PRE", "cmd.PREA", "cmd.RD",
    "cmd.RDA", "cmd.WR",  "cmd.WRA",  "cmd.REF",
};

Channel::Channel(const Geometry &geometry, const TimingParams &timing)
    : geom(geometry), params(timing)
{
    geom.validate();
    rankState.resize(geom.ranks);
    bankState.resize(std::size_t{geom.ranks} * geom.banks);
}

void
Channel::checkIds(unsigned rank, unsigned bank_idx) const
{
    panic_if(rank >= geom.ranks, "rank %u out of range", rank);
    panic_if(bank_idx >= geom.banks, "bank %u out of range", bank_idx);
}

const BankState &
Channel::bank(unsigned rank, unsigned bank_idx) const
{
    checkIds(rank, bank_idx);
    return bankState[std::size_t{rank} * geom.banks + bank_idx];
}

BankState &
Channel::bank(unsigned rank, unsigned bank_idx)
{
    checkIds(rank, bank_idx);
    return bankState[std::size_t{rank} * geom.banks + bank_idx];
}

StatGroup
Channel::stats() const
{
    StatGroup group("channel");
    for (std::size_t c = 0; c < kNumCommands; ++c)
        if (commandCounts[c] > 0)
            group.inc(kCommandNames[c], commandCounts[c]);
    return group;
}

bool
Channel::isRowOpen(unsigned rank, unsigned bank_idx) const
{
    return bank(rank, bank_idx).rowOpen;
}

bool
Channel::allBanksPrecharged(unsigned rank) const
{
    for (unsigned b = 0; b < geom.banks; ++b)
        if (bank(rank, b).rowOpen)
            return false;
    return true;
}

Tick
Channel::earliestIssueTick(Command cmd, unsigned rank, unsigned bank_idx,
                           RowId row) const
{
    checkIds(rank, bank_idx);
    const BankState &b = bank(rank, bank_idx);
    const RankState &r = rankState[rank];
    Tick earliest{};

    switch (cmd) {
      case Command::Act: {
        panic_if(b.rowOpen, "ACT to a bank with an open row");
        earliest = std::max({b.nextAct, r.nextAct, r.nextRefOk});
        // tFAW: at most four ACTs per rank in a rolling window.
        if (r.actTimes.size() >= 4) {
            Tick window_open = r.actTimes.front() + params.cyc(params.tFAW);
            earliest = std::max(earliest, window_open);
        }
        break;
      }
      case Command::Pre:
        earliest = std::max(b.nextPre, r.nextRefOk);
        break;
      case Command::PreA: {
        earliest = r.nextRefOk;
        for (unsigned bi = 0; bi < geom.banks; ++bi)
            earliest = std::max(earliest, bank(rank, bi).nextPre);
        break;
      }
      case Command::Rd:
      case Command::RdA:
        panic_if(!b.rowOpen || b.openRow != row,
                 "column read to a row that is not open");
        earliest = std::max({b.nextRead, nextReadGlobal, r.nextRefOk});
        break;
      case Command::Wr:
      case Command::WrA:
        panic_if(!b.rowOpen || b.openRow != row,
                 "column write to a row that is not open");
        earliest = std::max({b.nextWrite, nextWriteGlobal, r.nextRefOk});
        break;
      case Command::Ref: {
        panic_if(!allBanksPrecharged(rank),
                 "REF requires all banks precharged");
        earliest = r.nextRefOk;
        for (unsigned bi = 0; bi < geom.banks; ++bi)
            earliest = std::max(earliest, bank(rank, bi).nextAct);
        break;
      }
    }
    return earliest;
}

bool
Channel::canIssue(Command cmd, unsigned rank, unsigned bank_idx,
                  RowId row, Tick now) const
{
    // State preconditions first; earliestIssueTick panics on them, so
    // screen here to give callers a boolean answer.
    const BankState &b = bank(rank, bank_idx);
    switch (cmd) {
      case Command::Act:
        if (b.rowOpen)
            return false;
        break;
      case Command::Rd:
      case Command::RdA:
      case Command::Wr:
      case Command::WrA:
        if (!b.rowOpen || b.openRow != row)
            return false;
        break;
      case Command::Ref:
        if (!allBanksPrecharged(rank))
            return false;
        break;
      case Command::Pre:
      case Command::PreA:
        break;
    }
    return earliestIssueTick(cmd, rank, bank_idx, row) <= now;
}

Tick
Channel::issue(Command cmd, unsigned rank, unsigned bank_idx,
               RowId row, Tick now)
{
    Tick earliest = earliestIssueTick(cmd, rank, bank_idx, row);
    panic_if(now < earliest,
             "%s issued at tick %llu, legal only from %llu",
             toString(cmd).c_str(),
             static_cast<unsigned long long>(now.value()),
             static_cast<unsigned long long>(earliest.value()));

    BankState &b = bank(rank, bank_idx);
    RankState &r = rankState[rank];
    ++commandCounts[static_cast<std::size_t>(cmd)];

    auto cyc = [this](unsigned c) { return params.cyc(c); };

    switch (cmd) {
      case Command::Act: {
        b.rowOpen = true;
        b.openRow = row;
        b.rowHitStreak = 0;
        b.nextRead = now + cyc(params.tRCD);
        b.nextWrite = now + cyc(params.tRCD);
        b.nextPre = now + cyc(params.tRAS);
        b.nextAct = now + cyc(params.tRC);
        r.nextAct = std::max(r.nextAct, now + cyc(params.tRRD));
        r.actTimes.push_back(now);
        while (r.actTimes.size() > 4)
            r.actTimes.pop_front();
        return now + cyc(params.tRCD);
      }
      case Command::Pre: {
        b.rowOpen = false;
        b.nextAct = std::max(b.nextAct, now + cyc(params.tRP));
        return now + cyc(params.tRP);
      }
      case Command::PreA: {
        Tick done = now;
        for (unsigned bi = 0; bi < geom.banks; ++bi) {
            BankState &bb = bank(rank, bi);
            if (bb.rowOpen) {
                panic_if(now < bb.nextPre, "PREA before a bank's tRAS/tWR");
                bb.rowOpen = false;
            }
            bb.nextAct = std::max(bb.nextAct, now + cyc(params.tRP));
            done = std::max(done, bb.nextAct);
        }
        return done;
      }
      case Command::Rd:
      case Command::RdA: {
        Tick data_done = now + cyc(params.tCL + params.tBL);
        b.rowHitStreak++;
        // Next column command anywhere on the bus.
        nextReadGlobal = std::max(nextReadGlobal, now + cyc(params.tCCD));
        nextWriteGlobal =
            std::max(nextWriteGlobal, now + cyc(params.readToWrite()));
        b.nextRead = std::max(b.nextRead, now + cyc(params.tCCD));
        b.nextWrite = std::max(b.nextWrite, now + cyc(params.readToWrite()));
        b.nextPre = std::max(b.nextPre, now + cyc(params.tRTP));
        if (cmd == Command::RdA) {
            b.rowOpen = false;
            Tick pre_at = std::max(b.nextPre, now + cyc(params.tRTP));
            b.nextAct = std::max(b.nextAct, pre_at + cyc(params.tRP));
        }
        return data_done;
      }
      case Command::Wr:
      case Command::WrA: {
        Tick data_done = now + cyc(params.tCWL + params.tBL);
        b.rowHitStreak++;
        nextWriteGlobal = std::max(nextWriteGlobal, now + cyc(params.tCCD));
        // Write-to-read turnaround applies rank-wide; model it on the
        // shared bus horizon, which is conservative across ranks.
        nextReadGlobal =
            std::max(nextReadGlobal, now + cyc(params.writeToRead()));
        b.nextWrite = std::max(b.nextWrite, now + cyc(params.tCCD));
        b.nextRead = std::max(b.nextRead, now + cyc(params.writeToRead()));
        b.nextPre = std::max(b.nextPre, now + cyc(params.writeToPre()));
        if (cmd == Command::WrA) {
            b.rowOpen = false;
            Tick pre_at = now + cyc(params.writeToPre());
            b.nextAct = std::max(b.nextAct, pre_at + cyc(params.tRP));
        }
        return data_done;
      }
      case Command::Ref: {
        Tick done = now + cyc(params.tRFC);
        r.nextRefOk = done;
        for (unsigned bi = 0; bi < geom.banks; ++bi) {
            BankState &bb = bank(rank, bi);
            bb.nextAct = std::max(bb.nextAct, done);
        }
        return done;
      }
    }
    panic("unknown command");
}

void
Channel::saveState(StateWriter &out) const
{
    out.line("chan");
    out.tick("rd", nextReadGlobal);
    out.tick("wr", nextWriteGlobal);
    for (const RankState &r : rankState) {
        out.line("rank");
        out.tick("act", r.nextAct);
        out.tick("refok", r.nextRefOk);
        std::vector<std::uint64_t> acts;
        for (Tick t : r.actTimes)
            acts.push_back(t.value());
        out.tuples("faw", acts);
    }
    // A closed bank's stale row is unobservable; it saves as 0.
    std::vector<std::uint64_t> banks;
    for (const BankState &b : bankState)
        banks.insert(banks.end(),
                     {b.rowOpen ? 1u : 0u, b.rowOpen ? b.openRow.value() : 0,
                      b.nextAct.value(), b.nextPre.value(),
                      b.nextRead.value(), b.nextWrite.value(),
                      b.rowHitStreak});
    out.line("banks");
    out.tuples("b", banks, 7);
    out.line("chanstats");
    out.stats(stats());
}

void
Channel::loadState(StateReader &in)
{
    in.line("chan");
    nextReadGlobal = in.tick("rd");
    nextWriteGlobal = in.tick("wr");
    for (RankState &r : rankState) {
        in.line("rank");
        r.nextAct = in.tick("act");
        r.nextRefOk = in.tick("refok");
        const std::vector<std::uint64_t> acts = in.tuples("faw");
        in.check(acts.size() <= 4, "holds more than four tFAW ACTs");
        r.actTimes.clear();
        for (std::uint64_t t : acts)
            r.actTimes.push_back(Tick{t});
    }
    in.line("banks");
    const std::vector<std::uint64_t> banks = in.tuples("b", 7);
    in.check(banks.size() == bankState.size() * 7,
             "does not hold one tuple per bank");
    for (std::size_t i = 0; i < bankState.size(); ++i) {
        const std::uint64_t *v = &banks[i * 7];
        BankState &b = bankState[i];
        in.check(v[0] <= 1 && v[1] < geom.rowsPerBank,
                 "holds a bank with a bad open row");
        b.rowOpen = v[0] != 0;
        b.openRow = RowId{v[1]};
        b.nextAct = Tick{v[2]};
        b.nextPre = Tick{v[3]};
        b.nextRead = Tick{v[4]};
        b.nextWrite = Tick{v[5]};
        b.rowHitStreak = v[6];
    }
    // Only what a run can reach: a known command, a nonzero count (a
    // zero one is never written).
    in.line("chanstats");
    StatGroup saved;
    in.stats(saved);
    commandCounts.fill(0);
    for (const auto &[name, value] : saved.entries()) {
        const char *const *known =
            std::find_if(std::begin(kCommandNames), std::end(kCommandNames),
                         [&name](const char *c) { return name == c; });
        if (known == std::end(kCommandNames))
            in.check(false, "holds an unknown command counter '" + name + "'");
        in.check(value > 0.0 && value < 0x1p53 && value == std::floor(value),
                 "holds a count that is not a positive integer below 2^53");
        commandCounts[static_cast<std::size_t>(known - kCommandNames)] =
            static_cast<std::uint64_t>(value);
    }
}

} // namespace memcon::dram
