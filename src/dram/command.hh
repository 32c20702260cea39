/**
 * @file
 * The DDR3 command set the controller can issue to a channel.
 */

#ifndef MEMCON_DRAM_COMMAND_HH
#define MEMCON_DRAM_COMMAND_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace memcon::dram
{

enum class Command
{
    Act,  //!< activate (open) a row
    Pre,  //!< precharge (close) the open row in one bank
    PreA, //!< precharge all banks in a rank
    Rd,   //!< column read
    RdA,  //!< column read with auto-precharge
    Wr,   //!< column write
    WrA,  //!< column write with auto-precharge
    Ref,  //!< all-bank auto refresh
};

/** Commands in the set; Command values index [0, kNumCommands). */
constexpr std::size_t kNumCommands = static_cast<std::size_t>(Command::Ref) + 1;

std::string toString(Command cmd);

/** @return true for Rd/RdA/Wr/WrA. */
constexpr bool
isColumnCommand(Command cmd)
{
    return cmd == Command::Rd || cmd == Command::RdA ||
           cmd == Command::Wr || cmd == Command::WrA;
}

/** @return true for Rd/RdA. */
constexpr bool
isRead(Command cmd)
{
    return cmd == Command::Rd || cmd == Command::RdA;
}

/** @return true for Wr/WrA. */
constexpr bool
isWrite(Command cmd)
{
    return cmd == Command::Wr || cmd == Command::WrA;
}

/** @return true for commands that auto-precharge their bank. */
constexpr bool
autoPrecharges(Command cmd)
{
    return cmd == Command::RdA || cmd == Command::WrA;
}

} // namespace memcon::dram

#endif // MEMCON_DRAM_COMMAND_HH
