#include "common/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/parse_number.hpp"

namespace mac3d {
namespace {

using U32 = NumberField<SimConfig, std::uint32_t>;
using U64 = NumberField<SimConfig, std::uint64_t>;
using F64 = NumberField<SimConfig, double>;
constexpr std::uint32_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr NumberRange<std::uint32_t> kAtLeastOne{1, kU32Max};
/// Banks per cube, 128x Table 1's 512: each bank is modelled state.
constexpr std::uint64_t kMaxBanks = 1u << 16;

/// One SimConfig key. kKeys lists each key once, with its member and the
/// values it accepts; parse_overrides(), to_kv() and validate() all walk
/// it. Checks that relate two keys live in validate().
struct ConfigKey {
  std::string_view name;
  std::variant<U32, U64, F64, bool SimConfig::*, CoalescerPolicy SimConfig::*,
               std::string SimConfig::*>
      field;
};

constexpr ConfigKey kKeys[] = {
    // CoreId is 8-bit: a larger count would wrap core ids, and two cores
    // would share one SPM window.
    {"cores", U32{&SimConfig::cores, {1, 256}}},
    {"cpu_ghz", F64{&SimConfig::cpu_ghz, kPositive<double>}},
    {"spm_bytes", U64{&SimConfig::spm_bytes}},
    {"spm_latency_ns", F64{&SimConfig::spm_latency_ns, kNonNegative<double>}},
    {"nodes", U32{&SimConfig::nodes, {1, 65536}}},  // NodeId is 16-bit
    {"hmc_links", U32{&SimConfig::hmc_links, kAtLeastOne, true}},
    {"hmc_capacity", U64{&SimConfig::hmc_capacity, {1}, true}},
    {"row_bytes", U32{&SimConfig::row_bytes, {2 * kFlitBytes, 4096}, true}},
    {"vaults", U32{&SimConfig::vaults, kAtLeastOne, true}},
    {"banks_per_vault", U32{&SimConfig::banks_per_vault, kAtLeastOne, true}},
    {"link_queue_depth", U32{&SimConfig::link_queue_depth, kAtLeastOne}},
    {"t_link_flit", U32{&SimConfig::t_link_flit, kAtLeastOne}},
    {"t_serdes", U32{&SimConfig::t_serdes}},
    {"t_vault_ctrl", U32{&SimConfig::t_vault_ctrl}},
    {"t_bank_access", U32{&SimConfig::t_bank_access}},
    {"t_bank_precharge", U32{&SimConfig::t_bank_precharge}},
    {"t_row_data_flit", U32{&SimConfig::t_row_data_flit}},
    {"t_refi", U32{&SimConfig::t_refi}},
    {"t_rfc", U32{&SimConfig::t_rfc}},
    {"open_page", &SimConfig::open_page},
    {"t_bank_activate", U32{&SimConfig::t_bank_activate}},
    {"t_bank_cas", U32{&SimConfig::t_bank_cas}},
    {"arq_entries", U32{&SimConfig::arq_entries, {2, kU32Max}}},
    {"arq_entry_bytes", U32{&SimConfig::arq_entry_bytes, {16, kU32Max}}},
    {"arq_pop_interval", U32{&SimConfig::arq_pop_interval, kAtLeastOne}},
    {"builder_min_bytes",
     U32{&SimConfig::builder_min_bytes, {kFlitBytes, kU32Max}, true}},
    {"fill_fast_enabled", &SimConfig::fill_fast_enabled},
    {"policy", &SimConfig::policy},
    {"node_policies", &SimConfig::node_policies},
    {"mshr_entries", U32{&SimConfig::mshr_entries, kAtLeastOne}},
    {"mshr_block_bytes",
     U32{&SimConfig::mshr_block_bytes, {kFlitBytes, kMaxPacketDataBytes},
         true}},
    {"warp_lanes", U32{&SimConfig::warp_lanes, {1, 64}}},
    {"warp_block_bytes",
     U32{&SimConfig::warp_block_bytes, {kFlitBytes, kMaxPacketDataBytes},
         true}},
    {"warp_window_cycles", U32{&SimConfig::warp_window_cycles, kAtLeastOne}},
    {"remote_hop_cycles", U32{&SimConfig::remote_hop_cycles}},
    {"queue_depth", U32{&SimConfig::queue_depth, kAtLeastOne}},
};

/// The to_kv() token of a number: integers in decimal, doubles at full
/// precision.
template <typename T>
std::string render(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
  } else {
    return std::to_string(value);
  }
}

template <typename Field>
[[noreturn]] void reject(std::string_view key, std::string_view value,
                         const Field& field) {
  throw ConfigError(std::string(key) + "=" + std::string(value) + ": want " +
                    field.range.describe(field.pow2));
}

/// to_kv() quotes its string tokens; accept that form back so the
/// documented kv round-trip holds.
std::string unquote(const std::string& value) {
  if (value.size() >= 2 && value.front() == '"' && value.back() == '"') {
    return value.substr(1, value.size() - 2);
  }
  return value;
}

bool parse_bool(std::string_view key, const std::string& value) {
  if (value == "1" || value == "true" || value == "on") return true;
  if (value == "0" || value == "false" || value == "off") return false;
  throw ConfigError(std::string(key) + "=" + value +
                    ": want true|false|on|off|1|0");
}

CoalescerPolicy parse_policy_value(std::string_view key,
                                   const std::string& value) {
  CoalescerPolicy policy = CoalescerPolicy::kMac;
  if (!parse_policy(unquote(value), policy)) {
    throw ConfigError(std::string(key) + "=" + value +
                      ": want raw|mac|mshr|warp");
  }
  return policy;
}

/// Parse a "<i>:<policy>[;<i>:<policy>...]" node_policies string.
std::vector<std::pair<std::uint32_t, CoalescerPolicy>> parse_node_policies(
    const std::string& text) {
  std::vector<std::pair<std::uint32_t, CoalescerPolicy>> entries;
  std::istringstream stream(text);
  std::string entry;
  while (std::getline(stream, entry, ';')) {
    const auto colon = entry.find(':');
    const std::optional<std::uint32_t> node =
        colon == std::string::npos
            ? std::nullopt
            : parse_number<std::uint32_t>(entry.substr(0, colon), {0, 65535});
    CoalescerPolicy policy = CoalescerPolicy::kMac;
    if (!node || !parse_policy(entry.substr(colon + 1), policy)) {
      throw ConfigError("invalid node_policies entry '" + entry +
                        "' (want <node>:<raw|mac|mshr|warp>, node in "
                        "[0, 65535])");
    }
    entries.emplace_back(*node, policy);
  }
  return entries;
}

}  // namespace

CoalescerPolicy SimConfig::policy_for_node(std::uint32_t node) const {
  CoalescerPolicy result = policy;
  // Later entries win, so a CLI can append overrides.
  for (const auto& [index, entry] : parse_node_policies(node_policies)) {
    if (index == node) result = entry;
  }
  return result;
}

std::uint32_t SimConfig::max_targets_per_entry() const noexcept {
  // Entry layout (Sec. 5.3.3): 64-bit extended address + FLIT map occupy
  // 8 B + flit-map bytes; the remainder buffers 4.5 B targets.
  const double map_bytes = flits_per_row() / 8.0;
  const double avail = static_cast<double>(arq_entry_bytes) - 8.0 - map_bytes;
  if (avail <= 0) return 1;
  return static_cast<std::uint32_t>(std::floor(avail / kTargetBytes));
}

Cycle SimConfig::ns_to_cycles(double ns) const noexcept {
  return static_cast<Cycle>(std::llround(ns * cpu_ghz));
}

double SimConfig::cycles_to_ns(Cycle cycles) const noexcept {
  return static_cast<double>(cycles) / cpu_ghz;
}

void SimConfig::validate() const {
  for (const ConfigKey& key : kKeys) {
    std::visit(
        [&](const auto& field) {
          if constexpr (requires { field.range; }) {
            if (!field.accepts(this->*field.member)) {
              reject(key.name, render(this->*field.member), field);
            }
          }
        },
        key.field);
  }
  auto require = [](bool ok, const char* message) {
    if (!ok) throw ConfigError(message);
  };
  require(total_banks() <= kMaxBanks,
          "vaults x banks_per_vault must not exceed 65536 banks");
  require(hmc_capacity >= row_bytes * total_banks(),
          "hmc_capacity too small for vault/bank/row geometry");
  // SPM windows start at kSpmRegionBase (arch/spm.hpp); main memory must
  // stay below it. nodes >= 1 here, so the division is safe.
  require(hmc_capacity <= kSpmRegionBase / nodes,
          "nodes x hmc_capacity must not exceed 2^48 B (the SPM region)");
  require(hmc_links <= vaults, "hmc_links must not exceed vaults");
  require(builder_min_bytes <= row_bytes,
          "builder_min_bytes must be <= row_bytes");
  require(t_refi == 0 || t_rfc < t_refi,
          "t_rfc must be smaller than t_refi (or t_refi 0 to disable)");
  // Warp merges must stay inside one DRAM row (one packet == one row
  // visit, same contract the builder obeys), so blocks must nest in rows.
  require(warp_block_bytes <= row_bytes && row_bytes % warp_block_bytes == 0,
          "warp_block_bytes must divide row_bytes");
  if (node_policies.empty()) return;
  // Parses or throws; every listed node must exist in this system.
  for (const auto& [index, entry] : parse_node_policies(node_policies)) {
    (void)entry;
    if (index >= nodes) {
      throw ConfigError("node_policies references node " +
                        std::to_string(index) + " but nodes = " +
                        std::to_string(nodes));
    }
  }
}

void SimConfig::parse_overrides(
    const std::map<std::string, std::string>& kv) {
  for (const auto& [name, value] : kv) {
    const auto key = std::find_if(
        std::begin(kKeys), std::end(kKeys),
        [&name = name](const ConfigKey& entry) { return entry.name == name; });
    if (key == std::end(kKeys)) {
      throw ConfigError("unknown config key: " + name);
    }
    std::visit(
        [&](const auto& field) {
          using Field = std::decay_t<decltype(field)>;
          if constexpr (requires { field.range; }) {
            if (!field.set(*this, value)) reject(key->name, value, field);
          } else if constexpr (std::is_same_v<Field, bool SimConfig::*>) {
            this->*field = parse_bool(key->name, value);
          } else if constexpr (std::is_same_v<Field,
                                              CoalescerPolicy SimConfig::*>) {
            this->*field = parse_policy_value(key->name, value);
          } else {
            // node_policies: parse eagerly so a malformed string fails
            // here, not at System construction.
            const std::string text = unquote(value);
            (void)parse_node_policies(text);
            this->*field = text;
          }
        },
        key->field);
  }
}

void SimConfig::parse_override_string(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::string token;
  std::istringstream stream(text);
  while (std::getline(stream, token, ',')) {
    // Also allow whitespace-separated pairs inside a comma token.
    std::istringstream inner(token);
    std::string pair;
    while (inner >> pair) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw ConfigError("expected key=value, got '" + pair + "'");
      }
      kv[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  parse_overrides(kv);
}

void SimConfig::apply_env() {
  if (const char* overrides = std::getenv("MAC3D_CONFIG")) {
    try {
      parse_override_string(overrides);
    } catch (const ConfigError& error) {
      throw ConfigError(std::string("MAC3D_CONFIG: ") + error.what());
    }
  }
}

std::map<std::string, std::string> SimConfig::to_kv() const {
  std::map<std::string, std::string> kv;
  for (const ConfigKey& key : kKeys) {
    std::visit(
        [&](const auto& field) {
          using Field = std::decay_t<decltype(field)>;
          if constexpr (requires { field.range; }) {
            kv.emplace(key.name, render(this->*field.member));
          } else if constexpr (std::is_same_v<Field, bool SimConfig::*>) {
            kv.emplace(key.name, this->*field ? "true" : "false");
          } else if constexpr (std::is_same_v<Field,
                                              CoalescerPolicy SimConfig::*>) {
            // Quoted: to_kv() values are JSON value tokens (see RunReport).
            kv.emplace(key.name, '"' + std::string(to_string(this->*field)) +
                                     '"');
          } else {
            kv.emplace(key.name, '"' + this->*field + '"');
          }
        },
        key.field);
  }
  return kv;
}

std::string SimConfig::to_table() const {
  std::ostringstream out;
  out << "Parameter                | Value\n"
      << "-------------------------+---------------------------\n"
      << "ISA (traced)             | RV64-equivalent native kernels\n"
      << "Core #                   | " << cores << "\n"
      << "CPU Frequency            | " << cpu_ghz << " GHz\n"
      << "SPM                      | " << (spm_bytes >> 20)
      << " MB per core\n"
      << "Avg. SPM Access Latency  | " << spm_latency_ns << " ns\n"
      << "HMC                      | " << hmc_links << " Links, "
      << (hmc_capacity >> 30) << " GB, " << row_bytes << "B-block\n"
      << "Vaults x Banks           | " << vaults << " x " << banks_per_vault
      << " (" << total_banks() << " banks)\n"
      << "ARQ                      | " << arq_entries << " entries, "
      << arq_entry_bytes << "B per entry\n"
      << "Builder packet sizes     | " << builder_min_bytes << "B - "
      << row_bytes << "B\n";
  return out.str();
}

}  // namespace mac3d
