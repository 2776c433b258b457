/// \file
/// Per-core (hardware-thread) domain permission register: PKRU or DACR.

#pragma once

#include <array>
#include <cstdint>

#include "hw/perm.h"
#include "telemetry/metrics.h"

namespace vdom::hw {

/// Model of the per-core permission register.
///
/// Both Intel PKRU and ARM DACR pack one 2-bit access-rights field per
/// hardware domain into a 32-bit register.  The register is part of the
/// thread context: the kernel saves/restores it across context switches and
/// the VDom algorithm rewrites it when the (pdom, vdom) mapping of the
/// thread's VDS changes (Fig. 3: "permission bits P24 are moved ... in line
/// with the remapping").
class PermRegister {
  public:
    static constexpr std::size_t kSlots = 16;

    PermRegister() { reset(); }

    /// Resets to the hardware default: full access to pdom0, access
    /// disabled on every other pdom (the safe boot state VDom installs).
    void
    reset()
    {
        slots_.fill(Perm::kAccessDisable);
        slots_[0] = Perm::kFullAccess;
    }

    /// Reads the rights for \p pdom.
    Perm get(std::uint8_t pdom) const { return slots_[pdom]; }

    /// Writes the rights for \p pdom.
    void
    set(std::uint8_t pdom, Perm perm)
    {
        slots_[pdom] = perm;
        telemetry::metric_add(telemetry::Metric::kPermRegWrite);
    }

    /// Writes the rights for \p pdom without counting a register write:
    /// for composing a whole image whose writes the caller counts once
    /// (or never, when the image never reaches hardware).
    void set_unmetered(std::uint8_t pdom, Perm perm) { slots_[pdom] = perm; }

    /// Returns the raw 32-bit register image (PKRU layout: 2 bits/pdom).
    std::uint32_t
    raw() const
    {
        std::uint32_t value = 0;
        for (std::size_t i = 0; i < kSlots; ++i)
            value |= static_cast<std::uint32_t>(slots_[i]) << (2 * i);
        return value;
    }

    /// Loads a raw 32-bit register image.
    void
    load_raw(std::uint32_t value)
    {
        for (std::size_t i = 0; i < kSlots; ++i)
            slots_[i] = static_cast<Perm>((value >> (2 * i)) & 0x3u);
        telemetry::metric_add(telemetry::Metric::kPermRegWrite);
    }

    bool
    operator==(const PermRegister &other) const
    {
        return slots_ == other.slots_;
    }

  private:
    std::array<Perm, kSlots> slots_;
};

}  // namespace vdom::hw
