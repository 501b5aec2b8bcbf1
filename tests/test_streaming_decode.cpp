// Streaming decode→composite identity: each codec's one decode,
// decode_rect_into / decode_range_into, blends straight out of the receive
// buffer and promises *byte*-identical frames and identical counters to the
// wire-level unpack-then-blend reference decoders (wire::unpack_composite_*,
// wire::composite_rle_strided) — for every codec, every part width
// (including empty and the 0..33 sweep that crosses every vector-kernel
// remainder case), both front orders, and RLE runs long enough to need
// kMaxRun escape chains. The suite closes with whole-frame identity of a
// reused engine arena: stale scratch from earlier frames must never leak
// into a later frame's bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/binary_swap.hpp"
#include "core/binary_tree.hpp"
#include "core/bsbr.hpp"
#include "core/bsbrc.hpp"
#include "core/bsbrs.hpp"
#include "core/bslc.hpp"
#include "core/codec.hpp"
#include "core/direct_send.hpp"
#include "core/engine_context.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/wire.hpp"
#include "test_helpers.hpp"

namespace core = slspvr::core;
namespace img = slspvr::img;
namespace pvr = slspvr::pvr;
using slspvr::testing::make_default_order;
using slspvr::testing::make_subimages;
using slspvr::testing::run_method;

namespace {

/// Byte-exact frame comparison (the decode paths promise identity, not
/// tolerance), with a first-differing-pixel report on failure.
void expect_bytes_identical(const img::Image& got, const img::Image& want) {
  ASSERT_EQ(got.width(), want.width());
  ASSERT_EQ(got.height(), want.height());
  if (got.pixel_count() == 0) return;
  if (std::memcmp(got.pixels().data(), want.pixels().data(),
                  static_cast<std::size_t>(got.pixel_count()) * sizeof(img::Pixel)) == 0) {
    return;
  }
  for (std::int64_t i = 0; i < got.pixel_count(); ++i) {
    const img::Pixel& g = got.at_index(i);
    const img::Pixel& w = want.at_index(i);
    ASSERT_EQ(0, std::memcmp(&g, &w, sizeof(img::Pixel)))
        << "first differing pixel at index " << i << ": got (" << g.r << ", " << g.g << ", "
        << g.b << ", " << g.a << ") want (" << w.r << ", " << w.g << ", " << w.b << ", "
        << w.a << ")";
  }
}

/// The wire-level reference decode for a rect codec's message.
img::Rect oracle_decode_rect(core::CodecKind kind, img::Image& image, const img::Rect& part,
                             img::UnpackBuffer& in, bool in_front, core::Counters& counters) {
  namespace wire = core::wire;
  switch (kind) {
    case core::CodecKind::kFullPixel:
      wire::unpack_composite_rect(image, part, in, in_front, counters);
      return part;
    case core::CodecKind::kBoundingRect:
      return wire::unpack_composite_raw_rect(image, in, image.bounds(), in_front, counters);
    case core::CodecKind::kRleRect:
      return wire::unpack_composite_rle_rect(image, in, image.bounds(), in_front, counters);
    case core::CodecKind::kSpanRect:
      return wire::unpack_composite_span_rect(image, in, image.bounds(), in_front, counters);
    case core::CodecKind::kInterleavedRle:
      break;
  }
  ADD_FAILURE() << "no rect oracle for " << core::codec_name(kind);
  return img::kEmptyRect;
}

/// Decode one encoded rect message into copies of the same destination —
/// the wire-level reference vs the codec's decode_rect_into — and require
/// identical bytes, covered rect, and counters.
void expect_rect_decode_matches_oracle(core::CodecKind kind, const img::PackBuffer& buf,
                                       const img::Image& base, const img::Rect& part,
                                       bool in_front) {
  img::Image want = base;
  core::Counters want_counters;
  img::UnpackBuffer want_in(buf.bytes());
  const img::Rect want_rect =
      oracle_decode_rect(kind, want, part, want_in, in_front, want_counters);

  core::EngineContext engine;
  img::Image got = base;
  core::Counters got_counters;
  img::UnpackBuffer got_in(buf.bytes());
  core::DecodeSink sink{got, in_front, got_counters, engine};
  const img::Rect got_rect = core::codec_for(kind).decode_rect_into(sink, part, got_in);

  EXPECT_EQ(got_rect, want_rect);
  expect_bytes_identical(got, want);
  EXPECT_EQ(got_counters.totals(), want_counters.totals());
}

/// The scalar twin: parse_rle + composite_rle_strided vs decode_range_into.
void expect_range_decode_matches_oracle(const img::PackBuffer& buf, const img::Image& base,
                                        const img::InterleavedRange& part, bool in_front) {
  img::Image want = base;
  core::Counters want_counters;
  img::UnpackBuffer want_in(buf.bytes());
  const img::Rle incoming = core::wire::parse_rle(want_in, part.count);
  core::wire::composite_rle_strided(want, part, incoming, in_front, want_counters);

  core::EngineContext engine;
  img::Image got = base;
  core::Counters got_counters;
  img::UnpackBuffer got_in(buf.bytes());
  core::DecodeSink sink{got, in_front, got_counters, engine};
  core::codec_for(core::CodecKind::kInterleavedRle).decode_range_into(sink, part, got_in);

  expect_bytes_identical(got, want);
  EXPECT_EQ(got_counters.totals(), want_counters.totals());
}

/// Encode `part` of a random source and check the decode of it into a
/// random destination against the reference.
void check_rect_codec_identity(core::CodecKind kind, int width, bool in_front) {
  constexpr int kHeight = 7;
  const auto seed = static_cast<std::uint32_t>(100 * static_cast<int>(kind) + width);
  const img::Image source = pvr::random_subimage(40, kHeight, 0.45, 77 + seed);
  const img::Image base = pvr::random_subimage(40, kHeight, 0.60, 900 + seed);
  const img::Rect part{3, 0, 3 + width, kHeight};

  img::PackBuffer buf;
  core::Counters encode_counters;
  core::codec_for(kind).encode_rect(source, part, part, buf, encode_counters);
  expect_rect_decode_matches_oracle(kind, buf, base, part, in_front);
}

/// The scalar-codec twin: an interleaved progression of `count` elements at
/// `stride` through a shared source/destination pair.
void check_scalar_codec_identity(std::int64_t count, std::int64_t stride, bool in_front) {
  const auto seed = static_cast<std::uint32_t>(17 * count + stride);
  const img::Image source = pvr::random_subimage(16, 12, 0.45, 31 + seed);
  const img::Image base = pvr::random_subimage(16, 12, 0.60, 500 + seed);
  const img::InterleavedRange part{1, stride, count};
  ASSERT_LE(part.index(count > 0 ? count - 1 : 0), source.pixel_count() - 1);

  img::PackBuffer buf;
  core::Counters encode_counters;
  core::codec_for(core::CodecKind::kInterleavedRle).encode_range(source, part, buf,
                                                                 encode_counters);
  expect_range_decode_matches_oracle(buf, base, part, in_front);
}

/// An image whose row-major RLE has one blank and one non-blank run, both
/// longer than kern::kMaxRun (65535) — so the wire stream carries zero-length
/// escape codes inside both runs.
img::Image long_run_image(int width, int height, int blank_rows, int solid_rows) {
  img::Image image(width, height);
  for (int y = blank_rows; y < blank_rows + solid_rows; ++y) {
    for (int x = 0; x < width; ++x) {
      image.at(x, y) =
          img::Pixel{0.1f + 0.01f * static_cast<float>(x % 7),
                     0.2f + 0.01f * static_cast<float>(y % 5),
                     0.3f + 0.01f * static_cast<float>((x + y) % 3), 0.5f};
    }
  }
  return image;
}

}  // namespace

TEST(StreamingDecode, RectCodecsMatchLegacyAtEveryWidth) {
  for (const core::CodecKind kind :
       {core::CodecKind::kFullPixel, core::CodecKind::kBoundingRect,
        core::CodecKind::kRleRect, core::CodecKind::kSpanRect}) {
    for (int width = 0; width <= 33; ++width) {
      for (const bool in_front : {false, true}) {
        SCOPED_TRACE(std::string(core::codec_name(kind)) + " width " +
                     std::to_string(width) + (in_front ? " front" : " back"));
        check_rect_codec_identity(kind, width, in_front);
      }
    }
  }
}

TEST(StreamingDecode, ScalarCodecMatchesLegacyAtEveryLength) {
  for (const std::int64_t stride : {1, 2, 5}) {
    for (std::int64_t count = 0; count <= 33; ++count) {
      for (const bool in_front : {false, true}) {
        SCOPED_TRACE("stride " + std::to_string(stride) + " count " + std::to_string(count) +
                     (in_front ? " front" : " back"));
        check_scalar_codec_identity(count, stride, in_front);
      }
    }
  }
}

// Runs longer than kMaxRun force zero-length escape codes into the stream:
// over a 400x400 part the blank chain (68000 blanks, escape at 65535) and
// the non-blank chain (80000 pixels, escape at element 133535) both split,
// and the non-blank run crosses 200 rectangle rows. The decode must keep
// its code and payload cursors in step across every escape.
TEST(StreamingDecode, RunsStraddleKMaxRunEscapes) {
  const img::Image source = long_run_image(400, 400, /*blank_rows=*/170, /*solid_rows=*/200);
  const img::Image base = pvr::random_subimage(400, 400, 0.5, 4242);
  const img::Rect part{0, 0, 400, 400};
  const img::InterleavedRange whole = img::InterleavedRange::whole(source.pixel_count());

  img::PackBuffer rect_buf;
  img::PackBuffer range_buf;
  core::Counters encode_counters;
  core::codec_for(core::CodecKind::kRleRect).encode_rect(source, part, part, rect_buf,
                                                         encode_counters);
  core::codec_for(core::CodecKind::kInterleavedRle).encode_range(source, whole, range_buf,
                                                                 encode_counters);
  for (const bool in_front : {false, true}) {
    SCOPED_TRACE(in_front ? "front" : "back");
    expect_rect_decode_matches_oracle(core::CodecKind::kRleRect, rect_buf, base, part,
                                      in_front);
    expect_range_decode_matches_oracle(range_buf, base, whole, in_front);
  }
}

// Whole-frame identity on a reused arena: FrameService and the resident
// --procs workers keep one engine context per rank across frames, so a
// frame composited on warm scratch (left over from other methods, rank
// counts and frame sizes) must gather the same bytes and per-rank op
// totals as the same frame on a fresh arena.
TEST(StreamingDecode, WholeFrameIdenticalOnAReusedArena) {
  struct MethodCase {
    std::string name;
    std::unique_ptr<core::Compositor> method;
  };
  std::vector<MethodCase> methods;
  methods.push_back({"BS", std::make_unique<core::BinarySwapCompositor>()});
  methods.push_back({"BSBR", std::make_unique<core::BsbrCompositor>()});
  methods.push_back({"BSBRC", std::make_unique<core::BsbrcCompositor>()});
  methods.push_back({"BSBRS", std::make_unique<core::BsbrsCompositor>()});
  methods.push_back({"BSLC", std::make_unique<core::BslcCompositor>()});
  methods.push_back({"BSLC-contig", std::make_unique<core::BslcCompositor>(false)});
  methods.push_back({"BinaryTree", std::make_unique<core::BinaryTreeCompositor>()});
  methods.push_back({"DirectSend-sparse", std::make_unique<core::DirectSendCompositor>(true)});
  methods.push_back({"Pipeline", std::make_unique<core::ParallelPipelineCompositor>()});

  core::EngineArena reused;
  for (const MethodCase& mc : methods) {
    for (const int ranks : {8, 2, 4}) {
      int levels = 0;
      while ((1 << levels) < ranks) ++levels;
      const int width = ranks == 4 ? 40 : 48;
      const auto subimages = make_subimages(ranks, width, 36, 0.4,
                                            static_cast<std::uint32_t>(7 * ranks + 1));
      const core::SwapOrder order = make_default_order(levels);

      SCOPED_TRACE(mc.name + " P" + std::to_string(ranks));
      const auto fresh = run_method(*mc.method, subimages, order);
      const auto warm = run_method(*mc.method, subimages, order, &reused);
      expect_bytes_identical(warm.final_image, fresh.final_image);
      ASSERT_EQ(warm.per_rank.size(), fresh.per_rank.size());
      for (std::size_t r = 0; r < warm.per_rank.size(); ++r) {
        EXPECT_EQ(warm.per_rank[r].totals(), fresh.per_rank[r].totals()) << "rank " << r;
      }
    }
  }
}
