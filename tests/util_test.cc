#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <string>
#include <string_view>

#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

TEST(ByteCodecTest, RoundTripsEveryField) {
  ByteWriter w;
  w.U8(0xab);
  w.U32(0x01020304);
  w.U64(0x1122334455667788ull);
  w.F64(-0.1);
  w.Pad8();
  w.Bytes("hello");
  w.Raw("xyz");
  EXPECT_EQ(w.size(), 24u + 8 + 5 + 3);
  // Little-endian images.
  EXPECT_EQ(w.str().substr(1, 4), std::string("\x04\x03\x02\x01", 4));

  const std::string bytes = w.Take();
  ByteReader r(bytes);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0;
  std::string_view view;
  ASSERT_TRUE(r.U8(&u8, "u8").ok());
  ASSERT_TRUE(r.U32(&u32, "u32").ok());
  ASSERT_TRUE(r.U64(&u64, "u64").ok());
  ASSERT_TRUE(r.F64(&f64, "f64").ok());
  ASSERT_TRUE(r.Pad8("pad").ok());
  ASSERT_TRUE(r.Bytes(&view, "bytes").ok());
  EXPECT_EQ(view, "hello");
  ASSERT_TRUE(r.Skip(1, "x").ok());
  ASSERT_TRUE(r.Raw(2, &view, "yz").ok());
  EXPECT_EQ(view, "yz");
  EXPECT_TRUE(r.ExpectEnd("buffer").ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0x01020304u);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_EQ(f64, -0.1);
}

TEST(ByteCodecTest, FailuresNameFieldAndOffset) {
  ByteWriter w;
  w.U32(7);
  w.U64(uint64_t{1} << 40);  // a length far past the end
  w.U8(1);                   // a nonzero pad byte
  w.Raw(std::string(3, '\0'));
  const std::string bytes = w.Take();

  ByteReader r(bytes);
  uint32_t u32 = 0;
  ASSERT_TRUE(r.U32(&u32, "count").ok());
  std::string_view view;
  Status st = r.Bytes(&view, "name");
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("name at offset 4"), std::string::npos) << st.ToString();
  EXPECT_EQ(r.offset(), 4u);  // a failed read consumes nothing
  size_t start = 0;
  st = r.Array(8, ~uint64_t{0}, &start, "rows");  // count * 8 overflows
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("rows at offset 4"), std::string::npos) << st.ToString();
  ASSERT_TRUE(r.Skip(8, "length").ok());
  st = r.Pad8("tail");
  EXPECT_NE(st.message().find("nonzero tail pad byte at offset 12"), std::string::npos)
      << st.ToString();
  st = r.ExpectEnd("record");
  EXPECT_NE(st.message().find("4 trailing bytes after record at offset 12"),
            std::string::npos)
      << st.ToString();
  uint64_t word = 0;
  st = r.U64(&word, "word");
  EXPECT_NE(st.message().find("truncated word at offset 12"), std::string::npos)
      << st.ToString();
}

TEST(Crc32cTest, KnownVectors) {
  // Check value from the CRC catalogue (CRC-32C over "123456789"); pins
  // the hardware and software paths to the reference polynomial.
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  // RFC 3720 B.4 test patterns.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62a8ab43u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  // Splitting the input at every position must give the one-shot digest,
  // covering all slice-by-8 remainder lengths.
  std::string data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<char>(i * 37));
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "split at " << cut;
  }
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status err = Status::NotFound("thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.message(), "thing");
  EXPECT_EQ(err.ToString(), "NotFound: thing");
}

Status Fails() { return Status::Internal("boom"); }
Status Propagates() {
  DD_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInternal);
}

Result<int> MakeResult(bool ok) {
  if (ok) return 42;
  return Status::InvalidArgument("nope");
}
Result<int> Chained(bool ok) {
  DD_ASSIGN_OR_RETURN(int x, MakeResult(ok));
  return x + 1;
}

TEST(ResultTest, ValueAndError) {
  auto good = MakeResult(true);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = MakeResult(false);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Chained(true), 43);
  EXPECT_FALSE(Chained(false).ok());
}

TEST(RngTest, DeterministicAndSeedSensitive) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(7);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    uint64_t n = rng.NextBounded(10);
    EXPECT_LT(n, 10u);
    int64_t k = rng.NextInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(2);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, TrimLowerAffixes) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtilTest, DigitAndCapitalChecks) {
  EXPECT_TRUE(IsAllDigits("123"));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_TRUE(IsCapitalized("Abc"));
  EXPECT_FALSE(IsCapitalized("abc"));
  EXPECT_FALSE(IsCapitalized(""));
}

TEST(HashTest, StableAndSensitive) {
  EXPECT_EQ(Fnv1a("hello"), Fnv1a("hello"));
  EXPECT_NE(Fnv1a("hello"), Fnv1a("hellp"));
  // Known FNV-1a vector: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelFor) {
  ThreadPool pool(3);
  std::vector<int> out(50, 0);
  pool.ParallelFor(50, [&](size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i], i * 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

}  // namespace
}  // namespace dd
