#include "types.hh"

#include "util/logging.hh"

namespace rowhammer::dram
{

std::string
toString(Command cmd)
{
    switch (cmd) {
      case Command::ACT:
        return "ACT";
      case Command::PRE:
        return "PRE";
      case Command::PREA:
        return "PREA";
      case Command::RD:
        return "RD";
      case Command::WR:
        return "WR";
      case Command::REF:
        return "REF";
      default:
        util::panic("toString: unknown Command");
    }
}

} // namespace rowhammer::dram
