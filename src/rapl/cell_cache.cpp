#include "rapl/cell_cache.h"

#include <cstdlib>
#include <cstring>

#include "common/expect.h"

namespace dufp::rapl {

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// The numeric fields the edge computation reads, compared exactly (bit
/// patterns via ==; configs are program constants, never NaN).  Listed
/// explicitly so adding a SocketConfig field forces a conscious decision
/// here: does it reach the power model / grid geometry or not?
bool same_edge_inputs(const hw::SocketConfig& a, const hw::SocketConfig& b) {
  const auto& pa = a.power;
  const auto& pb = b.power;
  const auto& ma = a.memory;
  const auto& mb = b.memory;
  return a.cores == b.cores && a.core_min_mhz == b.core_min_mhz &&
         a.core_max_mhz == b.core_max_mhz &&
         a.core_base_mhz == b.core_base_mhz &&
         a.core_step_mhz == b.core_step_mhz &&
         a.uncore_min_mhz == b.uncore_min_mhz &&
         a.uncore_max_mhz == b.uncore_max_mhz &&
         a.uncore_step_mhz == b.uncore_step_mhz &&
         pa.static_w == pb.static_w && pa.core_idle_w == pb.core_idle_w &&
         pa.core_dyn_w == pb.core_dyn_w && pa.v_slope == pb.v_slope &&
         pa.v_min_frac == pb.v_min_frac &&
         pa.uncore_base_w == pb.uncore_base_w &&
         pa.uncore_act_w == pb.uncore_act_w &&
         pa.uncore_alpha == pb.uncore_alpha &&
         pa.dram_background_w == pb.dram_background_w &&
         pa.dram_w_per_gbps == pb.dram_w_per_gbps &&
         ma.peak_bw_gbps == mb.peak_bw_gbps &&
         ma.fu_sat_mhz == mb.fu_sat_mhz && ma.conc_base == mb.conc_base &&
         ma.conc_slope == mb.conc_slope &&
         ma.prefetch_coeff == mb.prefetch_coeff;
}

/// Fixed table geometry: 2^16 slots of 40 bytes (2.5 MiB) at 3/4 max
/// load, so 49 152 edges stay resident — a 1024-socket capped fleet pins
/// ~29k distinct edges per pass, a tournament grid a few thousand.
/// Allocated once so the in-run paths never touch the heap.
constexpr std::size_t kSlotBits = 16;
constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
constexpr std::size_t kMaxResident = kSlots - kSlots / 4;

std::uint64_t mix(std::uint64_t x) {
  // splitmix64 finalizer: every input bit reaches the low (index) bits,
  // which matters because the double words differ mostly up high.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t hash_key(const SharedCellCache::Key& k) {
  std::uint64_t h = 0;
  for (const std::uint64_t w : k) h = mix(h ^ w);
  return h;
}

}  // namespace

SharedCellCache::SharedCellCache() : slots_(kSlots) {
  static_assert(sizeof(Slot) == 40, "table geometry assumes 40-byte slots");
  const char* env = std::getenv("DUFP_SHARED_CELL_CACHE");
  enabled_ = env == nullptr || std::strcmp(env, "0") != 0;
}

SharedCellCache& SharedCellCache::instance() {
  static SharedCellCache cache;
  return cache;
}

std::uint32_t SharedCellCache::intern_config(const hw::SocketConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    if (same_edge_inputs(configs_[i], cfg)) {
      return static_cast<std::uint32_t>(i);
    }
  }
  // Pinned here, once per distinct config (~19 grid states x ~62 probes
  // of the inverse), never per governor.
  thresholds_.push_back(
      std::make_unique<const ScaleThresholds>(ScaleThresholds::pin(cfg)));
  configs_.push_back(cfg);
  return static_cast<std::uint32_t>(configs_.size() - 1);
}

const ScaleThresholds& SharedCellCache::scale_thresholds(
    std::uint32_t config_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  DUFP_EXPECT(config_id < thresholds_.size());
  return *thresholds_[config_id];
}

EdgeInputs::EdgeInputs(double effective_uncore_mhz, double cpu_activity,
                       double mem_activity)
    : uncore_mhz(bits_of(effective_uncore_mhz)),
      cpu_activity(bits_of(cpu_activity)),
      mem_activity(bits_of(mem_activity)) {}

EdgeInputs EdgeInputs::of(const hw::SocketModel& socket) {
  return EdgeInputs(socket.effective_uncore_mhz(),
                    socket.demand().cpu_activity,
                    socket.demand().mem_activity);
}

SharedCellCache::Key SharedCellCache::make_key(std::uint32_t config_id,
                                               std::size_t idx,
                                               const EdgeInputs& in) {
  // A full 32-bit id together with a full 32-bit index would spell the
  // empty marker; neither comes close (configs and P-states number tens).
  DUFP_EXPECT(config_id < 0xffffffffu && idx <= 0xffffffffu);
  return Key{std::uint64_t{config_id} << 32 | static_cast<std::uint64_t>(idx),
             in.uncore_mhz, in.cpu_activity, in.mem_activity};
}

/// Linear probe to the key's slot (used, matching) or its insertion
/// point (first unused slot of the probe chain).  The table never runs
/// truly full — inserts stop at kMaxResident — so the walk terminates.
std::size_t SharedCellCache::probe_locked(const Key& key) const {
  std::size_t i = static_cast<std::size_t>(hash_key(key)) & (kSlots - 1);
  while (slots_[i].used() && slots_[i].key != key) {
    i = (i + 1) & (kSlots - 1);
  }
  return i;
}

bool SharedCellCache::lookup(const Key& key, double* edge) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return false;
  const Slot& slot = slots_[probe_locked(key)];
  if (!slot.used()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  *edge = slot.edge;
  return true;
}

void SharedCellCache::insert(const Key& key, double edge) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!enabled_) return;
  Slot& slot = slots_[probe_locked(key)];
  // First writer wins; a racing build computed the identical bits.
  if (slot.used()) return;
  if (resident_ >= kMaxResident) {
    ++stats_.full_drops;
    return;
  }
  slot.key = key;
  slot.edge = edge;
  ++resident_;
  ++stats_.inserts;
}

bool SharedCellCache::enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return enabled_;
}

void SharedCellCache::set_enabled(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  enabled_ = on;
}

void SharedCellCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // Interned configs survive: governors hold their dense ids for the
  // process lifetime, and recycling an id would alias two different
  // configs under one key.  Only the edges (and stats) reset.
  for (Slot& slot : slots_) slot.key[0] = kEmpty;
  resident_ = 0;
  stats_ = GlobalStats{};
}

SharedCellCache::GlobalStats SharedCellCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  GlobalStats out = stats_;
  out.entries = resident_;
  return out;
}

}  // namespace dufp::rapl
