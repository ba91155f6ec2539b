#include "factory.hh"

#include "mitigation/ideal.hh"
#include "mitigation/increfresh.hh"
#include "mitigation/mrloc.hh"
#include "mitigation/para.hh"
#include "mitigation/prohit.hh"
#include "mitigation/trr.hh"
#include "mitigation/twice.hh"
#include "util/logging.hh"

namespace rowhammer::mitigation
{

std::vector<Kind>
allKinds()
{
    return {Kind::IncreasedRefresh, Kind::PARA,  Kind::ProHIT,
            Kind::MRLoc,            Kind::TWiCe, Kind::TWiCeIdeal,
            Kind::TrrSampler,       Kind::Ideal};
}

std::string
toString(Kind kind)
{
    switch (kind) {
      case Kind::None:
        return "None";
      case Kind::IncreasedRefresh:
        return "IncRefresh";
      case Kind::PARA:
        return "PARA";
      case Kind::ProHIT:
        return "ProHIT";
      case Kind::MRLoc:
        return "MRLoc";
      case Kind::TWiCe:
        return "TWiCe";
      case Kind::TWiCeIdeal:
        return "TWiCe-ideal";
      case Kind::TrrSampler:
        return "TRR";
      case Kind::Ideal:
        return "Ideal";
    }
    util::panic("toString: unknown mitigation Kind");
}

std::unique_ptr<Mitigation>
makeMitigation(Kind kind, double hc_first, const dram::TimingSpec &timing,
               int rows_per_bank, std::uint64_t seed)
{
    switch (kind) {
      case Kind::None:
        return std::make_unique<NoMitigation>();
      case Kind::IncreasedRefresh:
        return std::make_unique<IncreasedRefreshRate>(hc_first, timing);
      case Kind::PARA:
        return std::make_unique<Para>(hc_first, timing, seed);
      case Kind::ProHIT:
        return std::make_unique<ProHit>(seed);
      case Kind::MRLoc:
        return std::make_unique<MrLoc>(seed);
      case Kind::TWiCe:
        return std::make_unique<TWiCe>(hc_first, timing, false);
      case Kind::TWiCeIdeal:
        return std::make_unique<TWiCe>(hc_first, timing, true);
      case Kind::TrrSampler:
        return std::make_unique<TrrSampler>();
      case Kind::Ideal:
        return std::make_unique<IdealRefresh>(hc_first, rows_per_bank);
    }
    util::panic("makeMitigation: unknown mitigation Kind");
}

bool
evaluatedAt(Kind kind, double hc_first, const dram::TimingSpec &timing)
{
    switch (kind) {
      case Kind::ProHIT:
      case Kind::MRLoc:
        // Published parameters exist only for HCfirst = 2000.
        return hc_first == 2000.0;
      case Kind::TWiCe:
        return TWiCe(hc_first, timing, false).feasible();
      case Kind::IncreasedRefresh:
        return IncreasedRefreshRate(hc_first, timing).feasible();
      default:
        return true;
    }
}

} // namespace rowhammer::mitigation
