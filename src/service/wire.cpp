#include "service/wire.h"

#include "common/digest.h"

namespace rfly::service {

namespace {

/// Highest StatusCode the protocol knows; a decoded code beyond this is a
/// framing error, not a new enumerator.
constexpr std::uint8_t kMaxStatusCode =
    static_cast<std::uint8_t>(StatusCode::kUnavailable);

bool valid_request_type(std::uint16_t raw) {
  switch (static_cast<MsgType>(raw)) {
    case MsgType::kSubmit:
    case MsgType::kStatus:
    case MsgType::kResult:
    case MsgType::kCancel:
    case MsgType::kStats:
    case MsgType::kShutdown:
    case MsgType::kAck:
    case MsgType::kError:
      return true;
  }
  return false;
}

}  // namespace

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kSubmit: return "SUBMIT";
    case MsgType::kStatus: return "STATUS";
    case MsgType::kResult: return "RESULT";
    case MsgType::kCancel: return "CANCEL";
    case MsgType::kStats: return "STATS";
    case MsgType::kShutdown: return "SHUTDOWN";
    case MsgType::kAck: return "ACK";
    case MsgType::kError: return "ERROR";
  }
  return "UNKNOWN";
}

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "QUEUED";
    case JobState::kRunning: return "RUNNING";
    case JobState::kDone: return "DONE";
    case JobState::kCancelled: return "CANCELLED";
  }
  return "UNKNOWN";
}

void encode_frame_header(const FrameHeader& header, std::uint8_t* out) {
  const std::uint16_t type = static_cast<std::uint16_t>(header.type);
  std::memcpy(out + 0, &header.magic, 4);
  std::memcpy(out + 4, &header.version, 2);
  std::memcpy(out + 6, &type, 2);
  std::memcpy(out + 8, &header.payload_len, 8);
}

Expected<FrameHeader> decode_frame_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    return Status{StatusCode::kParseError,
                  "truncated frame header: " + std::to_string(bytes.size()) +
                      " of " + std::to_string(kFrameHeaderBytes) + " bytes"};
  }
  FrameHeader header;
  std::uint16_t type = 0;
  std::memcpy(&header.magic, bytes.data() + 0, 4);
  std::memcpy(&header.version, bytes.data() + 4, 2);
  std::memcpy(&type, bytes.data() + 6, 2);
  std::memcpy(&header.payload_len, bytes.data() + 8, 8);
  if (header.magic != kMagic) {
    return Status{StatusCode::kParseError, "bad frame magic"};
  }
  if (header.version != kProtocolVersion) {
    return Status{StatusCode::kUnavailable,
                  "protocol version " + std::to_string(header.version) +
                      " not supported (server speaks " +
                      std::to_string(kProtocolVersion) + ")"};
  }
  if (!valid_request_type(type)) {
    return Status{StatusCode::kParseError,
                  "unknown frame type " + std::to_string(type)};
  }
  header.type = static_cast<MsgType>(type);
  if (header.payload_len > kMaxPayloadBytes) {
    // Rejected on the header alone — the payload is never read, let alone
    // allocated (tests assert this with a multi-GiB length field).
    return Status{StatusCode::kInvalidArgument,
                  "frame payload of " + std::to_string(header.payload_len) +
                      " bytes exceeds the " +
                      std::to_string(kMaxPayloadBytes) + "-byte cap"};
  }
  return header;
}

std::string encode_frame(MsgType type, std::string payload) {
  FrameHeader header;
  header.type = type;
  header.payload_len = payload.size();
  std::uint8_t raw[kFrameHeaderBytes];
  encode_frame_header(header, raw);
  std::string frame(reinterpret_cast<const char*>(raw), kFrameHeaderBytes);
  frame += payload;
  return frame;
}

// --- Status ----------------------------------------------------------------

void encode_status(WireWriter& w, const Status& status) {
  w.u8(static_cast<std::uint8_t>(status.code()));
  w.str(status.message());
  w.u32(static_cast<std::uint32_t>(status.context().size()));
  for (const auto& frame : status.context()) w.str(frame);
}

bool decode_status(WireReader& r, Status& status) {
  std::uint8_t code = 0;
  std::string message;
  std::uint32_t frames = 0;
  if (!r.u8(code) || !r.str(message) || !r.u32(frames)) return false;
  if (code > kMaxStatusCode) return false;
  // `frames` is untrusted: read frame by frame instead of sizing a vector
  // from it. Each frame costs at least its 4-byte length, so the payload
  // bounds the loop.
  std::vector<std::string> context;
  for (std::uint32_t i = 0; i < frames; ++i) {
    std::string frame;
    if (!r.str(frame)) return false;
    context.push_back(std::move(frame));
  }
  if (code == 0) {
    status = Status::ok();
    return true;
  }
  status = Status{static_cast<StatusCode>(code), std::move(message)};
  // add_context prepends, so replaying the frames innermost-first rebuilds
  // the original outermost-first order.
  for (auto it = context.rbegin(); it != context.rend(); ++it) {
    status.add_context(std::move(*it));
  }
  return true;
}

// --- Error / stats -----------------------------------------------------------

void encode_error(WireWriter& w, const WireError& error) {
  w.u8(static_cast<std::uint8_t>(error.code));
  w.str(error.message);
  w.u32(error.retry_after_ms);
}

bool decode_error(WireReader& r, WireError& error) {
  std::uint8_t code = 0;
  if (!r.u8(code) || !r.str(error.message) || !r.u32(error.retry_after_ms)) {
    return false;
  }
  if (code == 0 || code > kMaxStatusCode) return false;  // ERROR is never OK
  error.code = static_cast<StatusCode>(code);
  return true;
}

void encode_stats(WireWriter& w, const ServiceStats& stats) {
  w.u64(stats.submitted);
  w.u64(stats.rejected);
  w.u64(stats.completed);
  w.u64(stats.cancelled);
  w.u64(stats.simulated);
  w.u64(stats.cache_hits);
  w.u64(stats.cache_misses);
  w.u64(stats.cache_entries);
  w.u64(stats.queue_depth);
  w.u64(stats.in_flight);
  w.u64(stats.queue_capacity);
  w.u8(stats.draining);
}

bool decode_stats(WireReader& r, ServiceStats& stats) {
  return r.u64(stats.submitted) && r.u64(stats.rejected) &&
         r.u64(stats.completed) && r.u64(stats.cancelled) &&
         r.u64(stats.simulated) && r.u64(stats.cache_hits) &&
         r.u64(stats.cache_misses) && r.u64(stats.cache_entries) &&
         r.u64(stats.queue_depth) && r.u64(stats.in_flight) &&
         r.u64(stats.queue_capacity) && r.u8(stats.draining);
}

// --- BatchResult -------------------------------------------------------------

namespace {

void encode_item(WireWriter& w, const core::ScannedItem& item) {
  for (std::uint8_t byte : item.epc) w.u8(byte);
  w.str(item.description);
  w.u8(item.discovered ? 1 : 0);
  w.u8(item.localized ? 1 : 0);
  w.f64(item.estimate.x);
  w.f64(item.estimate.y);
  w.f64(item.estimate.z);
  w.u64(item.measurements);
  encode_status(w, item.status);
  w.u32(static_cast<std::uint32_t>(item.live.size()));
  for (const auto& live : item.live) {
    w.u64(live.measurements);
    w.f64(live.x);
    w.f64(live.y);
    w.f64(live.peak_value);
    w.f64(live.confidence);
    w.f64(live.coverage);
  }
}

bool decode_item(WireReader& r, core::ScannedItem& item) {
  for (auto& byte : item.epc) {
    if (!r.u8(byte)) return false;
  }
  std::uint8_t discovered = 0, localized = 0;
  std::uint64_t measurements = 0;
  if (!r.str(item.description)) return false;
  if (!r.u8(discovered) || !r.u8(localized)) return false;
  if (!r.f64(item.estimate.x) || !r.f64(item.estimate.y) ||
      !r.f64(item.estimate.z)) {
    return false;
  }
  if (!r.u64(measurements)) return false;
  if (!decode_status(r, item.status)) return false;
  item.discovered = discovered != 0;
  item.localized = localized != 0;
  item.measurements = static_cast<std::size_t>(measurements);
  std::uint32_t live_count = 0;
  if (!r.u32(live_count)) return false;
  item.live.clear();
  for (std::uint32_t i = 0; i < live_count; ++i) {
    localize::LiveEstimate live;
    std::uint64_t m = 0;
    if (!r.u64(m) || !r.f64(live.x) || !r.f64(live.y) ||
        !r.f64(live.peak_value) || !r.f64(live.confidence) ||
        !r.f64(live.coverage)) {
      return false;
    }
    live.measurements = static_cast<std::size_t>(m);
    item.live.push_back(live);
  }
  return true;
}

}  // namespace

void encode_batch_result(WireWriter& w, const sim::BatchResult& result) {
  w.str(result.scenario_name);
  w.u64(result.seed);
  encode_status(w, result.status);

  const sim::MissionRun& run = result.run;
  w.u32(static_cast<std::uint32_t>(run.report.items.size()));
  for (const auto& item : run.report.items) encode_item(w, item);
  w.u64(run.report.discovered);
  w.u64(run.report.localized);
  w.f64(run.report.flight_length_m);

  w.u32(static_cast<std::uint32_t>(run.trace.size()));
  for (const auto& trace : run.trace) {
    w.u8(static_cast<std::uint8_t>(trace.stage));
    w.f64(trace.seconds);
    w.u64(trace.invocations);
  }
  w.f64(run.total_seconds);
  encode_status(w, run.health);
  w.f64(run.aperture_coverage);
  w.u64(run.faults.dropouts);
  w.u64(run.faults.embedded_losses);
  w.u64(run.faults.phase_bursts);
  w.u64(run.faults.cfo_measurements);
  w.u64(run.faults.wind_points);
  w.u64(run.faults.retries);
}

bool decode_batch_result(WireReader& r, sim::BatchResult& result) {
  if (!r.str(result.scenario_name) || !r.u64(result.seed)) return false;
  if (!decode_status(r, result.status)) return false;

  sim::MissionRun& run = result.run;
  std::uint32_t items = 0;
  if (!r.u32(items)) return false;
  run.report.items.clear();
  for (std::uint32_t i = 0; i < items; ++i) {
    core::ScannedItem item;
    if (!decode_item(r, item)) return false;
    run.report.items.push_back(std::move(item));
  }
  std::uint64_t discovered = 0, localized = 0;
  if (!r.u64(discovered) || !r.u64(localized) ||
      !r.f64(run.report.flight_length_m)) {
    return false;
  }
  run.report.discovered = static_cast<std::size_t>(discovered);
  run.report.localized = static_cast<std::size_t>(localized);

  std::uint32_t traces = 0;
  if (!r.u32(traces)) return false;
  run.trace.clear();
  for (std::uint32_t i = 0; i < traces; ++i) {
    sim::StageTrace trace;
    std::uint8_t stage = 0;
    std::uint64_t invocations = 0;
    if (!r.u8(stage) || !r.f64(trace.seconds) || !r.u64(invocations)) {
      return false;
    }
    if (stage >= sim::kStageCount) return false;
    trace.stage = static_cast<sim::Stage>(stage);
    trace.invocations = static_cast<std::size_t>(invocations);
    run.trace.push_back(trace);
  }
  if (!r.f64(run.total_seconds)) return false;
  if (!decode_status(r, run.health)) return false;
  if (!r.f64(run.aperture_coverage)) return false;
  return r.u64(run.faults.dropouts) && r.u64(run.faults.embedded_losses) &&
         r.u64(run.faults.phase_bursts) && r.u64(run.faults.cfo_measurements) &&
         r.u64(run.faults.wind_points) && r.u64(run.faults.retries);
}

namespace {

std::uint64_t digest_status(std::uint64_t state, const Status& status) {
  state = digest_word(state, static_cast<std::uint64_t>(status.code()));
  state = digest_string(state, status.message());
  state = digest_word(state, status.context().size());
  for (const auto& frame : status.context()) {
    state = digest_string(state, frame);
  }
  return state;
}

}  // namespace

std::uint64_t deterministic_digest(const sim::BatchResult& result) {
  std::uint64_t state = digest_word(0x7266'6c79'6473'7674ull, 0);  // tag
  state = digest_string(state, result.scenario_name);
  state = digest_word(state, result.seed);
  state = digest_status(state, result.status);

  const sim::MissionRun& run = result.run;
  state = digest_word(state, run.report.items.size());
  for (const auto& item : run.report.items) {
    state = digest_bytes(state, item.epc.data(), item.epc.size());
    state = digest_string(state, item.description);
    state = digest_word(state, (item.discovered ? 2u : 0u) |
                                   (item.localized ? 1u : 0u));
    state = digest_double(state, item.estimate.x);
    state = digest_double(state, item.estimate.y);
    state = digest_double(state, item.estimate.z);
    state = digest_word(state, item.measurements);
    state = digest_status(state, item.status);
    state = digest_word(state, item.live.size());
    for (const auto& live : item.live) {
      state = digest_word(state, live.measurements);
      state = digest_double(state, live.x);
      state = digest_double(state, live.y);
      state = digest_double(state, live.peak_value);
      state = digest_double(state, live.confidence);
      state = digest_double(state, live.coverage);
    }
  }
  state = digest_word(state, run.report.discovered);
  state = digest_word(state, run.report.localized);
  state = digest_double(state, run.report.flight_length_m);

  // Stage identities and invocation counts are deterministic; stage
  // *seconds* and total_seconds are wall clock and deliberately excluded.
  state = digest_word(state, run.trace.size());
  for (const auto& trace : run.trace) {
    state = digest_word(state, static_cast<std::uint64_t>(trace.stage));
    state = digest_word(state, trace.invocations);
  }
  state = digest_status(state, run.health);
  state = digest_double(state, run.aperture_coverage);
  state = digest_word(state, run.faults.dropouts);
  state = digest_word(state, run.faults.embedded_losses);
  state = digest_word(state, run.faults.phase_bursts);
  state = digest_word(state, run.faults.cfo_measurements);
  state = digest_word(state, run.faults.wind_points);
  return digest_word(state, run.faults.retries);
}

}  // namespace rfly::service
