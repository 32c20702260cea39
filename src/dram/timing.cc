#include "dram/timing.hh"

#include <cmath>

#include "common/logging.hh"

namespace memcon::dram
{

std::string
toString(Density density)
{
    switch (density) {
      case Density::Gb8:
        return "8Gb";
      case Density::Gb16:
        return "16Gb";
      case Density::Gb32:
        return "32Gb";
      case Density::Gb64:
        return "64Gb";
    }
    panic("unknown density");
}

double
densityTrfcNs(Density density)
{
    // Table 2: baseline (8 Gb) tRFC 350 ns; 530/890/1600 ns as density
    // doubles.
    switch (density) {
      case Density::Gb8:
        return 350.0;
      case Density::Gb16:
        return 530.0;
      case Density::Gb32:
        return 890.0;
      case Density::Gb64:
        return 1600.0;
    }
    panic("unknown density");
}

TimingParams
TimingParams::ddr3_1600(Density density, TimeMs refresh_interval)
{
    fatal_if(refresh_interval.value() <= 0.0,
             "refresh interval must be positive, got %f ms",
             refresh_interval.value());

    TimingParams t{};
    t.tCk = nsToTicks(1.25); // 800 MHz
    t.tCL = 11;
    t.tCWL = 8;
    t.tRCD = 11;
    t.tRP = 11;
    t.tRAS = 28;
    t.tRC = t.tRAS + t.tRP;
    t.tCCD = 4;
    t.tRRD = 5;
    t.tFAW = 24;
    t.tWTR = 6;
    t.tWR = 12;
    t.tRTP = 6;
    t.tBL = 4;

    double trfc_ns = densityTrfcNs(density);
    t.tRFC = static_cast<unsigned>(std::ceil(trfc_ns / 1.25));

    // 8192 REF commands must cover the retention period.
    double trefi_ns = refresh_interval.value() * 1e6 / 8192.0;
    t.tREFI = static_cast<unsigned>(trefi_ns / 1.25);
    return t;
}

CostTimings
CostTimings::paperDdr3_1600()
{
    // Reproduces the appendix exactly:
    //   rowStreamNs = 11 + 128*4 + 11 = 534 ns
    //   Read&Compare = 2*534 = 1068 ns, Copy&Compare = 3*534 = 1602 ns
    //   refreshOpNs  = 28 + 11 = 39 ns
    return CostTimings{11.0, 11.0, 28.0, 4.0, 128};
}

} // namespace memcon::dram
