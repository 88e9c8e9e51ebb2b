// Ablation of the bitmap encoding choice for range queries (the encodings
// the paper's Section 2.2 surveys: equality [29], range [8], interval [9])
// on WAH-compressed columns: per-attribute size and range-query time as the
// query interval widens. Equality encoding pays one OR per bin in the
// interval; range and interval encodings touch at most two columns
// regardless of width but store denser (worse-compressing) columns.

#include <cstdio>
#include <random>

#include "bench/bench_util.h"
#include "roaring/roaring_bitmap.h"
#include "util/stopwatch.h"
#include "wah/wah_encoded.h"

namespace abitmap {
namespace bench {
namespace {

void Run() {
  // One representative attribute: 100k rows, cardinality 25, uniform.
  constexpr uint64_t kRows = 100000;
  constexpr uint32_t kCardinality = 25;
  std::mt19937_64 rng(77);
  std::vector<uint32_t> values;
  values.reserve(kRows);
  for (uint64_t i = 0; i < kRows; ++i) values.push_back(rng() % kCardinality);

  // Equality encoding: one WAH column per bin.
  std::vector<wah::WahVector> equality;
  {
    std::vector<util::BitVector> cols(kCardinality,
                                      util::BitVector(kRows));
    for (uint64_t i = 0; i < kRows; ++i) cols[values[i]].Set(i);
    for (const util::BitVector& c : cols) {
      equality.push_back(wah::WahVector::Compress(c));
    }
  }
  uint64_t equality_bytes = 0;
  for (const wah::WahVector& c : equality) equality_bytes += c.SizeInBytes();

  // The same equality columns as Roaring containers (array/bitset/run
  // chosen per chunk by Optimize) — the engine's exact index, played off
  // against WAH.
  std::vector<roaring::RoaringBitmap> roaring_eq;
  {
    std::vector<util::BitVector> cols(kCardinality,
                                      util::BitVector(kRows));
    for (uint64_t i = 0; i < kRows; ++i) cols[values[i]].Set(i);
    for (const util::BitVector& c : cols) {
      roaring::RoaringBitmap r = roaring::RoaringBitmap::FromBitVector(c);
      r.Optimize();
      roaring_eq.push_back(std::move(r));
    }
  }
  uint64_t roaring_bytes = 0;
  for (const roaring::RoaringBitmap& c : roaring_eq) {
    roaring_bytes += c.SizeInBytes();
  }

  wah::WahRangeAttribute range =
      wah::WahRangeAttribute::Build(values, kCardinality);
  wah::WahIntervalAttribute interval =
      wah::WahIntervalAttribute::Build(values, kCardinality);

  PrintHeader(
      "Ablation: encoding choice (100k rows, cardinality 25, WAH + Roaring)");
  std::printf("%-14s %10s %14s\n", "encoding", "#columns", "bytes");
  std::printf("%-14s %10u %14s\n", "equality", kCardinality,
              FormatBytes(equality_bytes).c_str());
  std::printf("%-14s %10u %14s\n", "eq-roaring", kCardinality,
              FormatBytes(roaring_bytes).c_str());
  std::printf("%-14s %10u %14s\n", "range", kCardinality - 1,
              FormatBytes(range.SizeInBytes()).c_str());
  std::printf("%-14s %10u %14s\n", "interval",
              kCardinality - interval.interval_width() + 1,
              FormatBytes(interval.SizeInBytes()).c_str());

  std::printf("\nrange-query time (usec, avg over starts) vs interval "
              "width:\n");
  std::printf("%-8s %12s %12s %12s %12s\n", "width", "equality",
              "eq-roaring", "range", "interval");
  for (uint32_t width : {1u, 2u, 4u, 8u, 16u, 24u}) {
    double eq_us = 0, ro_us = 0, rg_us = 0, iv_us = 0;
    int starts = 0;
    for (uint32_t lo = 0; lo + width <= kCardinality; lo += 3) {
      uint32_t hi = lo + width - 1;
      ++starts;
      uint64_t sink = 0;
      util::Stopwatch t1;
      {
        std::vector<const wah::WahVector*> bins;
        for (uint32_t b = lo; b <= hi; ++b) bins.push_back(&equality[b]);
        sink += wah::MultiOr(bins).NumWords();
      }
      eq_us += t1.ElapsedMicros();
      util::Stopwatch tr;
      {
        std::vector<const roaring::RoaringBitmap*> bins;
        for (uint32_t b = lo; b <= hi; ++b) bins.push_back(&roaring_eq[b]);
        sink += roaring::RoaringBitmap::MultiOr(bins).Count();
      }
      ro_us += tr.ElapsedMicros();
      util::Stopwatch t2;
      sink += range.EvalRange(lo, hi).NumWords();
      rg_us += t2.ElapsedMicros();
      util::Stopwatch t3;
      sink += interval.EvalRange(lo, hi).NumWords();
      iv_us += t3.ElapsedMicros();
      if (sink == 0xFFFFFFFF) std::printf(" ");
    }
    std::printf("%-8u %12.1f %12.1f %12.1f %12.1f\n", width, eq_us / starts,
                ro_us / starts, rg_us / starts, iv_us / starts);
  }
  std::printf(
      "\nShape: equality-encoded cost grows with the interval width; range\n"
      "and interval encodings stay flat (<= 2 column operations) but store\n"
      "denser columns (larger compressed size). Interval encoding halves\n"
      "the column count at a density between the two. The Roaring equality\n"
      "columns trade bytes for chunked containers that OR without a full\n"
      "decompress.\n");
}

}  // namespace
}  // namespace bench
}  // namespace abitmap

int main() {
  abitmap::bench::Run();
  return 0;
}
