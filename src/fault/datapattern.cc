#include "datapattern.hh"

#include "util/logging.hh"

namespace rowhammer::fault
{

std::array<DataPattern, 6>
figure4Patterns()
{
    return {DataPattern::RowStripe0, DataPattern::RowStripe1,
            DataPattern::ColStripe0, DataPattern::ColStripe1,
            DataPattern::Checkered0, DataPattern::Checkered1};
}

std::string
toString(DataPattern dp)
{
    switch (dp) {
      case DataPattern::Solid0:
        return "SO0";
      case DataPattern::Solid1:
        return "SO1";
      case DataPattern::ColStripe0:
        return "CS0";
      case DataPattern::ColStripe1:
        return "CS1";
      case DataPattern::Checkered0:
        return "CH0";
      case DataPattern::Checkered1:
        return "CH1";
      case DataPattern::RowStripe0:
        return "RS0";
      case DataPattern::RowStripe1:
        return "RS1";
      default:
        util::panic("toString: unknown pattern");
    }
}

} // namespace rowhammer::fault
