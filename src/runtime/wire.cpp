#include "runtime/wire.h"

#include <array>
#include <atomic>

#include "common/options.h"

namespace ares::wire {
namespace {

std::array<Codec, 256> g_registry{};
std::array<DeltaCodec, 256> g_delta_registry{};

void ensure_builtins() {
  // Function-local static: thread-safe one-time registration with an
  // inlineable guard-load fast path (this sits on the per-send sizing path,
  // where std::call_once's out-of-line fast path is measurable).
  static const bool once = (detail::register_builtin_codecs(),
                            detail::register_builtin_delta_codecs(), true);
  (void)once;
}

// -1 = not yet resolved from the environment. Trial threads may resolve a
// flag concurrently on their first send; the racing writes store the same
// value.
// ordering: relaxed — a single-word flag; nothing is published through it.
std::atomic<int> g_checked{-1};
// ordering: relaxed — as g_checked.
std::atomic<int> g_delta{-1};

std::size_t legacy_frame_size(const Message& m, const Codec& c) {
  if (c.size_body != nullptr) return 1 + c.size_body(m);
  Writer w = Writer::sizer();
  w.u8(static_cast<std::uint8_t>(m.kind()));
  c.encode_body(m, w);
  return w.size();
}

// Escape prologue: [0x00][version][kind], then the delta body.
constexpr std::size_t kDeltaPrologue = 3;

std::size_t delta_frame_size(const Message& m, const DeltaCodec& dc) {
  if (dc.size_body != nullptr) return kDeltaPrologue + dc.size_body(m);
  Writer w = Writer::sizer();
  dc.encode_body(m, w);
  return kDeltaPrologue + w.size();
}

}  // namespace

void register_codec(Kind kind, const Codec& codec) {
  g_registry[static_cast<std::uint8_t>(kind)] = codec;
}

const Codec* find_codec(Kind kind) {
  ensure_builtins();
  const Codec& c = g_registry[static_cast<std::uint8_t>(kind)];
  return c.encode_body == nullptr ? nullptr : &c;
}

void register_delta_codec(Kind kind, const DeltaCodec& codec) {
  g_delta_registry[static_cast<std::uint8_t>(kind)] = codec;
}

const DeltaCodec* find_delta_codec(Kind kind) {
  ensure_builtins();
  const DeltaCodec& c = g_delta_registry[static_cast<std::uint8_t>(kind)];
  return c.encode_body == nullptr ? nullptr : &c;
}

bool encode(const Message& m, Writer& w) {
  if (delta_enabled()) {
    const DeltaCodec* dc = find_delta_codec(m.kind());
    if (dc != nullptr) {
      w.u8(kDeltaEscape);
      w.u8(kDeltaVersion);
      w.u8(static_cast<std::uint8_t>(m.kind()));
      dc->encode_body(m, w);
      return true;
    }
  }
  const Codec* c = find_codec(m.kind());
  if (c == nullptr) return false;
  w.u8(static_cast<std::uint8_t>(m.kind()));
  c->encode_body(m, w);
  return true;
}

std::vector<std::uint8_t> encode(const Message& m) {
  Writer w;
  if (!encode(m, w)) return {};
  return w.take();
}

std::size_t encoded_size(const Message& m) {
  if (delta_enabled()) {
    const DeltaCodec* dc = find_delta_codec(m.kind());
    if (dc != nullptr) return delta_frame_size(m, *dc);
  }
  const Codec* c = find_codec(m.kind());
  if (c == nullptr) return 0;
  return legacy_frame_size(m, *c);
}

MessagePtr decode(const std::uint8_t* data, std::size_t len) {
  Reader r(data, len);
  auto kind = static_cast<Kind>(r.u8());
  if (!r.ok()) return nullptr;
  if (kind == Kind::kInvalid) {
    // Escape tag: a delta frame. Only decodable when delta mode is on —
    // legacy receivers take the find_codec(kInvalid)==nullptr path below
    // and reject (metered as wire.decode_fail at the delivery boundary).
    if (!delta_enabled()) return nullptr;
    if (r.u8() != kDeltaVersion || !r.ok()) return nullptr;
    kind = static_cast<Kind>(r.u8());
    if (!r.ok()) return nullptr;
    const DeltaCodec* dc = find_delta_codec(kind);
    if (dc == nullptr) return nullptr;
    MessagePtr out = dc->decode_body(r, kind);
    if (out == nullptr || !r.ok() || !r.at_end()) return nullptr;
    if (out->kind() != kind) return nullptr;
    detail::SizeCache::set(*out, len);
    return out;
  }
  const Codec* c = find_codec(kind);
  if (c == nullptr) return nullptr;
  MessagePtr out = c->decode_body(r, kind);
  if (out == nullptr || !r.ok() || !r.at_end()) return nullptr;
  // A decoded message must re-frame under the tag it arrived with; a codec
  // that violates this would corrupt accounting and re-encoding.
  if (out->kind() != kind) return nullptr;
  detail::SizeCache::set(*out, len);
  return out;
}

MessagePtr decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}

RecodeResult recode(const Message& m) {
  auto bytes = encode(m);
  if (bytes.empty()) return {nullptr, false};
  detail::SizeCache::set(m, bytes.size());
  return {decode(bytes), true};
}

bool checked_delivery() {
  int v = g_checked.load(std::memory_order_relaxed);
  if (v < 0) {
    v = option_flag("WIRE", false) ? 1 : 0;
    g_checked.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_checked_delivery(bool on) {
  g_checked.store(on ? 1 : 0, std::memory_order_relaxed);
}

bool delta_enabled() {
  int v = g_delta.load(std::memory_order_relaxed);
  if (v < 0) {
    v = option_flag("WIRE_DELTA", false) ? 1 : 0;
    g_delta.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_delta_enabled(bool on) { g_delta.store(on ? 1 : 0, std::memory_order_relaxed); }

std::size_t delta_savings(const Message& m) {
  if (!delta_enabled()) return 0;
  const DeltaCodec* dc = find_delta_codec(m.kind());
  if (dc == nullptr) return 0;
  const Codec* c = find_codec(m.kind());
  if (c == nullptr) return 0;
  const std::size_t legacy = legacy_frame_size(m, *c);
  const std::size_t delta = delta_frame_size(m, *dc);
  return legacy > delta ? legacy - delta : 0;
}

}  // namespace ares::wire
