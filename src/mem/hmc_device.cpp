#include "mem/hmc_device.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "check/hmc_checks.hpp"
#include "obs/obs.hpp"

namespace mac3d {

void HmcStats::collect(StatSet& out, const std::string& prefix) const {
  out.set(prefix + ".requests", static_cast<double>(requests));
  out.set(prefix + ".reads", static_cast<double>(reads));
  out.set(prefix + ".writes", static_cast<double>(writes));
  out.set(prefix + ".atomics", static_cast<double>(atomics));
  out.set(prefix + ".bank_conflicts", static_cast<double>(bank_conflicts));
  out.set(prefix + ".refresh_stalls", static_cast<double>(refresh_stalls));
  out.set(prefix + ".data_bytes", static_cast<double>(data_bytes));
  out.set(prefix + ".link_bytes", static_cast<double>(link_bytes));
  out.set(prefix + ".overhead_bytes", static_cast<double>(overhead_bytes));
  out.set(prefix + ".bandwidth_efficiency", measured_bandwidth_efficiency());
  out.set(prefix + ".avg_latency_cycles", latency_cycles.mean());
  out.set(prefix + ".avg_packet_bytes", packet_data_bytes.mean());
}

HmcDevice::HmcDevice(const SimConfig& config, NodeId node)
    : config_(config),
      map_(config),
      node_(node),
      vaults_per_link_(config.vaults / config.hmc_links),
      banks_(config.total_banks()),
      links_(config.hmc_links, Link(config.t_link_flit)),
      vault_until_(config.vaults) {
  config_.validate();
  if (config_.t_refi != 0) {
    // Stagger refresh windows evenly across the banks of each vault so a
    // vault never loses more than one bank at a time.
    for (std::size_t i = 0; i < banks_.size(); ++i) {
      banks_[i].configure_refresh(
          config_.t_refi, config_.t_rfc,
          (i % config_.banks_per_vault) * config_.t_refi /
              config_.banks_per_vault);
    }
  }
}

HmcDevice::~HmcDevice() = default;

void HmcDevice::attach_checks(CheckContext* context) {
  checks_ = context;
  checker_ = context == nullptr
                 ? nullptr
                 : std::make_unique<HmcChecker>(*context, banks_.size());
}

bool HmcDevice::can_accept(const HmcRequest& request,
                           Cycle now) const noexcept {
  const std::uint64_t row = map_.row_of(map_.local_addr(request.addr));
  const Link& link = links_[link_of(map_.vault_of(row))];
  const Cycle horizon = static_cast<Cycle>(config_.link_queue_depth) *
                        config_.t_link_flit;
  return link.request_backlog(now) <= horizon;
}

Cycle HmcDevice::submit(HmcRequest request, Cycle now) {
  if (request.data_bytes == 0 || request.data_bytes % kFlitBytes != 0 ||
      request.data_bytes > config_.row_bytes) {
    throw std::invalid_argument("HmcDevice: bad packet size " +
                                std::to_string(request.data_bytes));
  }
  const Address local = map_.local_addr(request.addr);
  if (local + request.data_bytes > config_.hmc_capacity) {
    throw std::invalid_argument("HmcDevice: address out of range");
  }
  // A packet must not straddle a DRAM row (the MAC guarantees this; raw
  // trace splitting guarantees it for bypassed requests).
  const std::uint64_t row = map_.row_of(local);
  if (map_.row_of(local + request.data_bytes - 1) != row) {
    throw std::invalid_argument("HmcDevice: packet crosses a row boundary");
  }

  // Deliberate one-shot model bugs for the invariant test suite.
  if (fault_ == Fault::kDropTarget && !request.targets.empty()) {
    request.targets.pop_back();
    fault_ = Fault::kNone;
  }
  std::uint32_t req_flits = request_flits(request.data_bytes, request.write);
  if (fault_ == Fault::kInflateOverhead) {
    ++req_flits;
    fault_ = Fault::kNone;
  }
  const std::uint32_t vault = map_.vault_of(row);
  Link& link = links_[link_of(vault)];

  // Request path: link serialization -> SerDes -> vault controller.
  const Cycle at_device = link.send_request(now, req_flits) + config_.t_serdes;
  const Cycle at_bank = at_device + config_.t_vault_ctrl;

  // Bank access. Atomics hold the bank slightly longer for the
  // read-modify-write in the logic layer.
  const Cycle data_cycles =
      static_cast<Cycle>(data_flits(request.data_bytes)) *
          config_.t_row_data_flit +
      (request.atomic ? 8 : 0);
  Bank& bank = banks_[map_.global_bank(row)];
  const Bank::Schedule sched =
      config_.open_page
          ? bank.access_open_page(at_bank, row, config_.t_bank_activate,
                                  config_.t_bank_cas + data_cycles,
                                  config_.t_bank_precharge)
          : bank.access(at_bank, config_.t_bank_access + data_cycles,
                        config_.t_bank_precharge);
  const Cycle bank_free_at = bank.free_at();
  // Busy-until slots: their one update site, busy from the submit cycle.
  vault_until_[vault].raise(now, bank_free_at);
  banks_until_.raise(now, bank_free_at);

  // Response path: vault controller -> link serialization -> SerDes.
  const std::uint32_t resp_flits =
      response_flits(request.data_bytes, request.write);
  const Cycle resp_ready = sched.data_ready + config_.t_vault_ctrl;
  const Cycle completed =
      link.send_response(resp_ready, resp_flits) + config_.t_serdes;
  const std::uint64_t wire =
      static_cast<std::uint64_t>(req_flits + resp_flits) * kFlitBytes;

  if (sink_ != nullptr) {
    // Raw-path and MAC packets carry the merged target identities; stamp
    // each one at link handoff and at the scheduled bank-access start.
    for (const Target& target : request.targets) {
      sink_->on_stage(Stage::kLinkSerialize, target.tid, target.tag, now);
      sink_->on_stage(Stage::kBankAccess, target.tid, target.tag, sched.start);
    }
  }

  if (checker_ != nullptr) {
    checker_->on_bank_access(map_.global_bank(row), at_bank, sched.start,
                             sched.data_ready, bank_free_at, sched.conflict,
                             now);
    checker_->on_packet(request.data_bytes, request.write, req_flits,
                        resp_flits, wire, now, sched.data_ready, completed);
    const auto row_offset =
        static_cast<std::uint32_t>(local - map_.row_base(row));
    for (const Target& target : request.targets) {
      checker_->on_target(target.flit, row_offset, request.data_bytes, now);
    }
  }

  // Accounting.
  ++stats_.requests;
  stats_.row_hits += sched.row_hit ? 1 : 0;
  stats_.reads += (!request.write && !request.atomic) ? 1 : 0;
  stats_.writes += request.write ? 1 : 0;
  stats_.atomics += request.atomic ? 1 : 0;
  stats_.bank_conflicts += sched.conflict ? 1 : 0;
  stats_.refresh_stalls += sched.refresh_stall ? 1 : 0;
  stats_.data_bytes += request.data_bytes;
  stats_.link_bytes += wire;
  stats_.overhead_bytes += wire - request.data_bytes;
  stats_.latency_cycles.add(static_cast<double>(completed - now));
  stats_.latency_hist.add(completed - now);
  stats_.packet_data_bytes.add(static_cast<double>(request.data_bytes));

  HmcResponse response;
  response.id = request.id;
  response.addr = request.addr;
  response.data_bytes = request.data_bytes;
  response.write = request.write;
  response.atomic = request.atomic;
  response.completed = completed;
  response.targets = std::move(request.targets);
  pending_.push_back(std::move(response));
  std::push_heap(pending_.begin(), pending_.end(), PendingGreater{});
  return completed;
}

const std::vector<HmcResponse>& HmcDevice::drain(Cycle now) {
  drained_.clear();
  while (!pending_.empty() && pending_.front().completed <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), PendingGreater{});
    drained_.push_back(std::move(pending_.back()));
    pending_.pop_back();
  }
  return drained_;
}

double HmcDevice::banks_busy_fraction(Cycle now) const noexcept {
  if (banks_.empty()) return 0.0;
  std::size_t busy = 0;
  for (const Bank& bank : banks_) busy += bank.busy(now) ? 1 : 0;
  return static_cast<double>(busy) / static_cast<double>(banks_.size());
}

double HmcDevice::vault_busy_fraction(std::uint32_t vault,
                                      Cycle now) const noexcept {
  const std::size_t first =
      static_cast<std::size_t>(vault) * config_.banks_per_vault;
  std::size_t busy = 0;
  for (std::size_t i = 0; i < config_.banks_per_vault; ++i) {
    busy += banks_[first + i].busy(now) ? 1 : 0;
  }
  return static_cast<double>(busy) /
         static_cast<double>(config_.banks_per_vault);
}

std::pair<std::uint64_t, std::uint64_t> HmcDevice::link_flits() const {
  std::uint64_t req = 0;
  std::uint64_t resp = 0;
  for (const Link& link : links_) {
    req += link.request_flits_sent();
    resp += link.response_flits_sent();
  }
  return {req, resp};
}

void HmcDevice::reset() {
  for (Bank& bank : banks_) bank.reset();
  for (Link& link : links_) link.reset();
  std::fill(vault_until_.begin(), vault_until_.end(), BusyUntil{});
  banks_until_ = {};
  pending_.clear();
  drained_.clear();
  stats_ = {};
  fault_ = Fault::kNone;
  if (checks_ != nullptr) attach_checks(checks_);  // clear bank history
}

}  // namespace mac3d
