#include "gpusim/spec.hpp"

namespace ent::sim {

DeviceSpec k40() {
  DeviceSpec s;
  s.name = "K40";
  s.num_smx = 15;
  s.cores_per_smx = 192;
  s.max_warps_per_smx = 64;
  s.warp_schedulers = 4;
  s.core_clock_ghz = 0.745;
  s.mem_bandwidth_gbs = 288.0;
  s.global_mem_bytes = 12ull << 30;
  s.l2_bytes = 1536 * 1024;
  s.shared_mem_per_smx = 64 * 1024;
  s.global_latency_cycles = 300;
  s.max_power_w = 235.0;
  return s;
}

DeviceSpec k20() {
  DeviceSpec s = k40();
  s.name = "K20";
  s.num_smx = 13;
  s.core_clock_ghz = 0.706;
  s.mem_bandwidth_gbs = 208.0;
  s.global_mem_bytes = 5ull << 30;
  s.max_power_w = 225.0;
  return s;
}

DeviceSpec scaled_down(DeviceSpec spec, double factor) {
  spec.name.append("/").append(std::to_string(static_cast<int>(factor)));
  spec.num_smx = static_cast<unsigned>(
      spec.num_smx / factor < 1.0 ? 1u
                                  : static_cast<unsigned>(
                                        static_cast<double>(spec.num_smx) /
                                        factor + 0.5));
  spec.mem_bandwidth_gbs /= factor;
  spec.l2_bytes = static_cast<std::size_t>(
      static_cast<double>(spec.l2_bytes) / factor);
  return spec;
}

DeviceSpec k40_sim() { return scaled_down(k40(), 16.0); }

DeviceSpec c2070() {
  DeviceSpec s;
  s.name = "C2070";
  s.num_smx = 14;
  s.cores_per_smx = 32;
  s.max_warps_per_smx = 48;
  s.warp_schedulers = 2;
  s.core_clock_ghz = 1.15;
  s.mem_bandwidth_gbs = 144.0;
  s.global_mem_bytes = 6ull << 30;
  s.l2_bytes = 768 * 1024;
  s.shared_mem_per_smx = 48 * 1024;
  s.global_latency_cycles = 400;
  s.max_power_w = 238.0;
  return s;
}

}  // namespace ent::sim
