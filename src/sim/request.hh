/**
 * @file
 * Memory request type exchanged between the CPU model and the memory
 * controller, plus the physical-address-to-DRAM-address mapper.
 */

#ifndef ROWHAMMER_SIM_REQUEST_HH
#define ROWHAMMER_SIM_REQUEST_HH

#include <cstdint>

#include "dram/address_functions.hh"
#include "dram/organization.hh"
#include "dram/types.hh"

namespace rowhammer::sim
{

/** A memory request at cache-line granularity. */
struct Request
{
    enum class Type
    {
        Read,
        Write,
    };

    std::uint64_t addr = 0; ///< Physical byte address.
    Type type = Type::Read;
    /** A read's completion token, which the controller only hands
     *  back (Controller::drainCompleted): requester and its tag. */
    int coreId = 0;
    std::uint32_t slot = 0;
    dram::Address decoded; ///< Filled by the controller.
};

/**
 * Physical-address to device-address mapping, compiled from a
 * dram::AddressFunctions spec. The default (linear) spec is the
 * historical layout (LSB to MSB): 6-bit line offset, channel, column,
 * bank group, bank, rank, row — consecutive cache lines interleave
 * across channels, then fill a row before moving to the next bank,
 * giving row-buffer locality to streaming access patterns (with one
 * channel this is exactly the historical single-channel layout). XOR
 * specs instead evaluate one GF(2) parity function per address bit
 * (zenhammer-style channel/bank/rank interleaving); encode() is the
 * exact inverse of decode() for every valid spec. decode() fills
 * Address::channel; core::System routes each request to that
 * channel's controller.
 */
class AddressMapper
{
  public:
    /** The default linear layout. */
    explicit AddressMapper(dram::Organization org);

    /** Compile `functions` for `org`; fatal() on an invalid spec. */
    AddressMapper(dram::Organization org,
                  dram::AddressFunctions functions);

    dram::Address decode(std::uint64_t addr) const;

    /**
     * Just the channel field of decode(addr), without the full field
     * extraction: core::System routes every core access (including
     * LLC hits that never reach DRAM) with this, and the owning
     * controller runs the full decode only for real misses.
     */
    int decodeChannel(std::uint64_t addr) const;

    /** Inverse of decode (trace generators invert the mapping with
     *  this — it is how an attacker lands aggressors in one bank). */
    std::uint64_t encode(const dram::Address &addr) const;

    const dram::Organization &organization() const { return org_; }
    const dram::AddressFunctions &functions() const { return fns_; }

  private:
    dram::Organization org_;
    dram::AddressFunctions fns_;
    /** Compiled matrices (Xor scheme only; empty for Linear). */
    dram::CompiledAddressMatrix matrix_;
};

} // namespace rowhammer::sim

#endif // ROWHAMMER_SIM_REQUEST_HH
