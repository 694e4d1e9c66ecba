#include "netbase/ipv4.h"

#include <gtest/gtest.h>

#include <string>

namespace sublet {
namespace {

TEST(Ipv4Parse, Valid) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
  EXPECT_EQ(Ipv4Addr::parse("213.210.0.0")->value(), 0xD5D20000u);
  EXPECT_EQ(Ipv4Addr::parse("1.2.3.4")->value(), 0x01020304u);
}

TEST(Ipv4Parse, RejectsMalformed) {
  EXPECT_FALSE(Ipv4Addr::parse(""));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Addr::parse("256.0.0.1"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3.4 "));
  EXPECT_FALSE(Ipv4Addr::parse("1..3.4"));
  EXPECT_FALSE(Ipv4Addr::parse("1.2.3."));
  EXPECT_FALSE(Ipv4Addr::parse("a.b.c.d"));
  EXPECT_FALSE(Ipv4Addr::parse("0001.2.3.4"));
}

TEST(Ipv4RoundTrip, ParseFormat) {
  for (const char* s : {"0.0.0.0", "10.0.0.1", "192.168.255.254",
                        "255.255.255.255", "213.210.33.0"}) {
    auto a = Ipv4Addr::parse(s);
    ASSERT_TRUE(a) << s;
    EXPECT_EQ(a->to_string(), s);
  }
}

TEST(Ipv4AppendTo, EdgeValuesAppendWithoutTouchingThePrefix) {
  std::string out = "x";
  Ipv4Addr(0).append_to(out);
  EXPECT_EQ(out, "x0.0.0.0");
  out.clear();
  Ipv4Addr(0xFFFFFFFFu).append_to(out);
  EXPECT_EQ(out, "255.255.255.255");
  out.clear();
  Ipv4Addr(0x0A00FF09u).append_to(out);  // one, two and three digit octets
  out.push_back(' ');
  Ipv4Addr(0x640A0001u).append_to(out);
  EXPECT_EQ(out, "10.0.255.9 100.10.0.1");
  EXPECT_EQ(Ipv4Addr(0xFFFFFFFFu).to_string(), "255.255.255.255");
}

TEST(PrefixAppendTo, EdgeValuesMatchToString) {
  std::string out;
  Prefix::make(Ipv4Addr(0), 0)->append_to(out);
  out.push_back(',');
  Prefix::make(Ipv4Addr(0xFFFFFFFFu), 32)->append_to(out);
  out.push_back(',');
  Prefix::make(Ipv4Addr(0x0A000000u), 8)->append_to(out);
  EXPECT_EQ(out, "0.0.0.0/0,255.255.255.255/32,10.0.0.0/8");
  for (int len = 0; len <= 32; ++len) {
    Prefix p = *Prefix::make(Ipv4Addr(0xC0A80101u), len);
    std::string appended = "pre:";
    p.append_to(appended);
    EXPECT_EQ(appended, "pre:" + p.to_string());
    EXPECT_EQ(Prefix::parse(p.to_string()), p);
  }
}

TEST(Ipv4Ordering, Numeric) {
  EXPECT_LT(*Ipv4Addr::parse("9.255.255.255"), *Ipv4Addr::parse("10.0.0.0"));
}

}  // namespace
}  // namespace sublet
