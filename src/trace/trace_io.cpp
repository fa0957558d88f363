#include "trace/trace_io.hpp"

#include <array>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace mac3d {
namespace {

constexpr std::array<char, 8> kMagic = {'M', 'A', 'C', '3',
                                        'D', 'T', 'R', 'C'};
constexpr std::uint32_t kVersion = 2;  // v2 added the gap field

struct DiskRecord {
  std::uint64_t addr;
  std::uint8_t op;
  std::uint8_t size;
  std::uint16_t gap;
  std::uint32_t pad32;
};
static_assert(sizeof(DiskRecord) == 16);

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
void read_pod(std::ifstream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("trace file truncated");
}

/// Why `disk` cannot reach the model as it stands, or nullptr. Fences carry
/// no address or size.
const char* invalid_record(const DiskRecord& disk) {
  if (disk.op > static_cast<std::uint8_t>(MemOp::kAtomic)) {
    return "corrupt record op";
  }
  if (static_cast<MemOp>(disk.op) == MemOp::kFence) return nullptr;
  if (disk.size == 0) return "record of size 0";
  if (disk.size > kFlitBytes) return "record larger than a FLIT (16 B)";
  if (disk.addr % kFlitBytes + disk.size > kFlitBytes) {
    return "record straddles a FLIT boundary";
  }
  return nullptr;
}

}  // namespace

void save_trace(const MemoryTrace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kVersion);
  write_pod(out, trace.threads());
  for (std::uint32_t t = 0; t < trace.threads(); ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    write_pod(out, static_cast<std::uint64_t>(records.size()));
    for (const MemRecord& record : records) {
      DiskRecord disk{record.addr, static_cast<std::uint8_t>(record.op),
                      record.size, record.gap, 0};
      write_pod(out, disk);
    }
  }
  if (!out) throw std::runtime_error("write failed: " + path);
}

MemoryTrace load_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  const std::streamoff file_bytes = in.tellg();
  in.seekg(0);
  std::array<char, 8> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic) {
    throw std::runtime_error("not a MAC3D trace file: " + path);
  }
  std::uint32_t version = 0;
  read_pod(in, version);
  if (version != kVersion) {
    throw std::runtime_error("unsupported trace version " +
                             std::to_string(version));
  }
  std::uint32_t threads = 0;
  read_pod(in, threads);
  if (threads == 0 || threads > 65536) {
    throw std::runtime_error("implausible thread count in trace");
  }
  MemoryTrace trace(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    std::uint64_t count = 0;
    read_pod(in, count);
    const auto bytes_left = static_cast<std::uint64_t>(file_bytes - in.tellg());
    if (count > bytes_left / sizeof(DiskRecord)) {
      throw std::runtime_error(
          "trace thread " + std::to_string(t) + " claims " +
          std::to_string(count) + " records, but only " +
          std::to_string(bytes_left / sizeof(DiskRecord)) + " fit in the " +
          std::to_string(bytes_left) + " bytes left");
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      DiskRecord disk{};
      read_pod(in, disk);
      if (const char* why = invalid_record(disk)) {
        std::ostringstream detail;
        detail << why << " in trace (thread " << t << ", record " << i
               << ", address 0x" << std::hex << disk.addr << std::dec
               << ", size " << static_cast<unsigned>(disk.size) << ")";
        throw std::runtime_error(detail.str());
      }
      trace.append(static_cast<ThreadId>(t),
                   MemRecord{disk.addr, static_cast<MemOp>(disk.op),
                             disk.size, disk.gap});
    }
  }
  return trace;
}

void check_trace_addresses(const MemoryTrace& trace, const SimConfig& config) {
  // validate() keeps the product at or below 2^48, so it cannot overflow.
  const Address limit =
      static_cast<Address>(config.nodes) * config.hmc_capacity;
  for (std::uint32_t t = 0; t < trace.threads(); ++t) {
    const auto& records = trace.thread(static_cast<ThreadId>(t));
    for (std::size_t i = 0; i < records.size(); ++i) {
      const MemRecord& record = records[i];
      if (record.op == MemOp::kFence || record.addr < limit) continue;
      std::ostringstream detail;
      detail << "trace thread " << t << ", record " << i << ": address 0x"
             << std::hex << record.addr << " is not below the 0x" << limit
             << std::dec << " B of main memory (nodes x hmc_capacity)";
      throw ConfigError(detail.str());
    }
  }
}

}  // namespace mac3d
