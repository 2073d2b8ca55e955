#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "stats/binning.hpp"
#include "stats/boxplot.hpp"
#include "stats/correlation.hpp"
#include "stats/histogram.hpp"
#include "stats/quantile.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "common/rng.hpp"

namespace gridvc::stats {
namespace {

// ---------------------------------------------------------------- quantile

TEST(Quantile, MatchesRType7) {
  // R: quantile(c(1,2,3,4), c(.25,.5,.75)) -> 1.75, 2.5, 3.25
  const std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(v, 0.50), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 3.25);
}

TEST(Quantile, Endpoints) {
  const std::vector<double> v{5, 1, 9};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> v{7.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.3), 7.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> v{9, 2, 7, 4, 1};
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 4.0);
}

TEST(Quantile, EmptyThrows) {
  const std::vector<double> v;
  EXPECT_THROW(quantile(v, 0.5), gridvc::PreconditionError);
}

TEST(Quantile, BatchMatchesSingle) {
  const std::vector<double> v{3, 1, 4, 1, 5, 9, 2, 6};
  const std::vector<double> probs{0.1, 0.5, 0.9};
  const auto qs = quantiles(v, probs);
  ASSERT_EQ(qs.size(), 3u);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_DOUBLE_EQ(qs[i], quantile(v, probs[i]));
  }
}

TEST(Quantile, SelectionMatchesSortReferenceBitwise) {
  // Heavy duplicates (most values drawn from a small pool) put equal
  // order statistics on both sides of floor(h); the rest are distinct, so
  // some probabilities interpolate between unequal neighbours.
  Rng rng(23);
  for (const std::size_t n : {1u, 2u, 3u, 100000u}) {
    std::vector<double> v(n);
    for (auto& x : v) {
      x = rng.bernoulli(0.7) ? static_cast<double>(rng.uniform_int(0, 50)) * 1.37e6
                             : rng.uniform(0.0, 7e7);
    }
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double p : {0.0, 1e-9, 0.25, 0.5, 0.75, 1.0}) {
      EXPECT_EQ(quantile(v, p), quantile_sorted(sorted, p)) << "n=" << n << " p=" << p;
    }
    EXPECT_EQ(median(v), quantile_sorted(sorted, 0.5)) << "n=" << n;
  }
}

// ----------------------------------------------------------------- summary

TEST(Summary, KnownValues) {
  // R: summary(c(2,4,4,4,5,5,7,9)) and sd() = 2.138...
  const std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.q1, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.q3, 5.5);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_NEAR(s.stddev, 2.13809, 1e-4);
  EXPECT_DOUBLE_EQ(s.iqr(), 1.5);
  EXPECT_NEAR(s.cv(), 2.13809 / 5.0, 1e-4);
}

TEST(Summary, SingleValueHasZeroSd) {
  const std::vector<double> v{3.0};
  const Summary s = summarize(v);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.min, s.max);
}

TEST(Summary, CvZeroWhenMeanZero) {
  const std::vector<double> v{-1.0, 1.0};
  EXPECT_DOUBLE_EQ(summarize(v).cv(), 0.0);
}

// ------------------------------------------------------------- correlation

TEST(Pearson, PerfectPositive) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{10, 20, 30, 40};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative) {
  const std::vector<double> x{1, 2, 3};
  const std::vector<double> y{3, 2, 1};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, KnownMidValue) {
  // Hand-checked: cor(c(1,2,3,4,5), c(2,1,4,3,5)) = 0.8
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{2, 1, 4, 3, 5};
  EXPECT_NEAR(pearson(x, y), 0.8, 1e-12);
}

TEST(Pearson, ZeroVarianceIsZero) {
  const std::vector<double> x{1, 1, 1};
  const std::vector<double> y{1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, SizeMismatchThrows) {
  const std::vector<double> x{1, 2};
  const std::vector<double> y{1};
  EXPECT_THROW(pearson(x, y), gridvc::PreconditionError);
}

TEST(QuartileCorrelation, PartitionsByKey) {
  // 8 points, keys 1..8: quartile buckets get 2 points each.
  std::vector<double> x, y, key;
  for (int i = 1; i <= 8; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i);
    key.push_back(i);
  }
  const auto qc = correlate_by_quartile(x, y, key);
  EXPECT_NEAR(qc.overall, 1.0, 1e-12);
  ASSERT_EQ(qc.by_quartile.size(), 4u);
  ASSERT_EQ(qc.quartile_counts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t c : qc.quartile_counts) total += c;
  EXPECT_EQ(total, 8u);
  for (double rho : qc.by_quartile) EXPECT_NEAR(rho, 1.0, 1e-9);
}

// ----------------------------------------------------------------- binning

TEST(SizeBinner, PaperSchemeBoundaries) {
  auto b = SizeBinner::paper_scheme();
  // 1024 bins of 1 MiB + 31 bins of 100 MiB (1 GiB .. 4 GiB + 4 GiB exact edge).
  EXPECT_EQ(b.bins().size(), 1024u + 31u);
  EXPECT_EQ(*b.bin_index(0), 0u);
  EXPECT_EQ(*b.bin_index(gridvc::MiB - 1), 0u);
  EXPECT_EQ(*b.bin_index(gridvc::MiB), 1u);
  EXPECT_EQ(*b.bin_index(gridvc::GiB - 1), 1023u);
  EXPECT_EQ(*b.bin_index(gridvc::GiB), 1024u);
  EXPECT_EQ(*b.bin_index(gridvc::GiB + 99 * gridvc::MiB), 1024u);
  EXPECT_EQ(*b.bin_index(gridvc::GiB + 100 * gridvc::MiB), 1025u);
  EXPECT_FALSE(b.bin_index(4 * gridvc::GiB).has_value());
}

TEST(SizeBinner, DropsOutOfRange) {
  auto b = SizeBinner::fixed(10, 100);
  b.add(5, 1.0);
  b.add(150, 2.0);
  EXPECT_EQ(b.dropped(), 1u);
}

TEST(SizeBinner, BinnedMediansAndCounts) {
  auto b = SizeBinner::fixed(gridvc::MiB, 10 * gridvc::MiB);
  b.add(gridvc::MiB / 2, 10.0);
  b.add(gridvc::MiB / 2, 30.0);
  b.add(gridvc::MiB / 2, 20.0);
  b.add(5 * gridvc::MiB, 99.0);
  const auto pts = binned_medians(b);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts[0].median, 20.0);
  EXPECT_EQ(pts[0].count, 3u);
  EXPECT_DOUBLE_EQ(pts[1].median, 99.0);
}

TEST(SizeBinner, MinCountFilter) {
  auto b = SizeBinner::fixed(gridvc::MiB, 10 * gridvc::MiB);
  b.add(0, 1.0);
  b.add(2 * gridvc::MiB, 1.0);
  b.add(2 * gridvc::MiB, 2.0);
  const auto pts = binned_medians(b, 2);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].count, 2u);
}

// --------------------------------------------------------------- histogram

TEST(Histogram, CountsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps into bucket 0
  h.add(100.0);  // clamps into bucket 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, CdfMonotone) {
  Histogram h(0.0, 100.0, 20);
  gridvc::Rng rng(3);
  for (int i = 0; i < 10000; ++i) h.add(rng.uniform(0.0, 100.0));
  double prev = -1.0;
  for (double x = 0.0; x <= 100.0; x += 5.0) {
    const double c = h.cdf(x);
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(h.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.cdf(100.0), 1.0);
  EXPECT_NEAR(h.cdf(50.0), 0.5, 0.03);
}

TEST(Histogram, RenderContainsCounts) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string r = h.render(10);
  EXPECT_NE(r.find("1"), std::string::npos);
  EXPECT_NE(r.find("2"), std::string::npos);
}

// ----------------------------------------------------------------- boxplot

TEST(BoxStats, NoOutliers) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const BoxStats b = box_stats(v);
  EXPECT_DOUBLE_EQ(b.median, 3.0);
  EXPECT_DOUBLE_EQ(b.whisker_lo, 1.0);
  EXPECT_DOUBLE_EQ(b.whisker_hi, 5.0);
  EXPECT_TRUE(b.outliers.empty());
}

TEST(BoxStats, DetectsOutliers) {
  std::vector<double> v{10, 11, 12, 13, 14, 15, 16, 17, 100};
  const BoxStats b = box_stats(v);
  ASSERT_EQ(b.outliers.size(), 1u);
  EXPECT_DOUBLE_EQ(b.outliers[0], 100.0);
  EXPECT_LT(b.whisker_hi, 100.0);
}

TEST(BoxPlot, RenderHasAllLabels) {
  std::vector<BoxGroup> groups{
      {"mem-mem", box_stats(std::vector<double>{1, 2, 3})},
      {"disk-disk", box_stats(std::vector<double>{2, 3, 4})},
  };
  const std::string out = render_boxplots(groups);
  EXPECT_NE(out.find("mem-mem"), std::string::npos);
  EXPECT_NE(out.find("disk-disk"), std::string::npos);
  EXPECT_NE(out.find('M'), std::string::npos);
}

// ------------------------------------------------------------------- table

TEST(Table, RendersHeaderAndRows) {
  Table t("Demo");
  t.set_header({"A", "Bee"});
  t.add_row({"1", "2"});
  t.add_row({"33"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Demo"), std::string::npos);
  EXPECT_NE(out.find("Bee"), std::string::npos);
  EXPECT_NE(out.find("33"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RowBeforeHeaderThrows) {
  Table t;
  EXPECT_THROW(t.add_row({"x"}), gridvc::PreconditionError);
}

TEST(Table, RowWiderThanHeaderThrows) {
  Table t;
  t.set_header({"one"});
  EXPECT_THROW(t.add_row({"a", "b"}), gridvc::PreconditionError);
}

}  // namespace
}  // namespace gridvc::stats
