#include "whoisdb/status.h"

#include <gtest/gtest.h>

namespace sublet::whois {
namespace {

struct StatusCase {
  Rir rir;
  const char* status;
  Portability expected;
};

// Names each case by its input; without this gtest prints the struct's raw
// bytes (padding and the string pointer), so the case names would change
// from build to build.
void PrintTo(const StatusCase& c, std::ostream* os) {
  *os << rir_name(c.rir) << " '" << c.status << "'";
}

class StatusTaxonomy : public testing::TestWithParam<StatusCase> {};

TEST_P(StatusTaxonomy, ClassifiesPerPaperSection21) {
  const auto& c = GetParam();
  EXPECT_EQ(classify_status(c.rir, c.status), c.expected)
      << rir_name(c.rir) << " '" << c.status << "'";
}

INSTANTIATE_TEST_SUITE_P(
    RipeStyle, StatusTaxonomy,
    testing::Values(
        StatusCase{Rir::kRipe, "ALLOCATED PA", Portability::kPortable},
        StatusCase{Rir::kRipe, "ASSIGNED PI", Portability::kPortable},
        StatusCase{Rir::kRipe, "ALLOCATED UNSPECIFIED", Portability::kPortable},
        StatusCase{Rir::kRipe, "ASSIGNED ANYCAST", Portability::kPortable},
        StatusCase{Rir::kRipe, "SUB-ALLOCATED PA", Portability::kNonPortable},
        StatusCase{Rir::kRipe, "ASSIGNED PA", Portability::kNonPortable},
        StatusCase{Rir::kRipe, "LEGACY", Portability::kLegacy},
        StatusCase{Rir::kRipe, "assigned pa", Portability::kNonPortable},
        StatusCase{Rir::kRipe, "  ALLOCATED PA  ", Portability::kPortable},
        StatusCase{Rir::kRipe, "NOT-A-STATUS", Portability::kUnknown},
        StatusCase{Rir::kAfrinic, "ALLOCATED PA", Portability::kPortable},
        StatusCase{Rir::kAfrinic, "SUB-ALLOCATED PA",
                   Portability::kNonPortable}));

INSTANTIATE_TEST_SUITE_P(
    Apnic, StatusTaxonomy,
    testing::Values(
        StatusCase{Rir::kApnic, "ALLOCATED PORTABLE", Portability::kPortable},
        StatusCase{Rir::kApnic, "ASSIGNED PORTABLE", Portability::kPortable},
        StatusCase{Rir::kApnic, "ALLOCATED NON-PORTABLE",
                   Portability::kNonPortable},
        StatusCase{Rir::kApnic, "ASSIGNED NON-PORTABLE",
                   Portability::kNonPortable},
        StatusCase{Rir::kApnic, "ALLOCATED PA", Portability::kUnknown}));

INSTANTIATE_TEST_SUITE_P(
    Arin, StatusTaxonomy,
    testing::Values(
        StatusCase{Rir::kArin, "allocation", Portability::kPortable},
        StatusCase{Rir::kArin, "Direct Allocation", Portability::kPortable},
        StatusCase{Rir::kArin, "assignment", Portability::kPortable},
        StatusCase{Rir::kArin, "Direct Assignment", Portability::kPortable},
        StatusCase{Rir::kArin, "Reallocation", Portability::kNonPortable},
        StatusCase{Rir::kArin, "Reassignment", Portability::kNonPortable},
        StatusCase{Rir::kArin, "legacy", Portability::kLegacy}));

INSTANTIATE_TEST_SUITE_P(
    Lacnic, StatusTaxonomy,
    testing::Values(
        StatusCase{Rir::kLacnic, "allocated", Portability::kPortable},
        StatusCase{Rir::kLacnic, "assigned", Portability::kPortable},
        StatusCase{Rir::kLacnic, "reallocated", Portability::kNonPortable},
        StatusCase{Rir::kLacnic, "reassigned", Portability::kNonPortable}));

TEST(RirNames, RoundTrip) {
  for (Rir rir : kAllRirs) {
    auto back = rir_from_name(rir_name(rir));
    ASSERT_TRUE(back);
    EXPECT_EQ(*back, rir);
  }
  EXPECT_FALSE(rir_from_name("IANA"));
  EXPECT_EQ(rir_from_name("ripe"), Rir::kRipe);
}

}  // namespace
}  // namespace sublet::whois
