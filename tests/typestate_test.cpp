// Register-access typestate discipline (snapshot/typestate.hpp): one RMW
// per stateful register per pipeline pass, checked at compile time. The
// rejection cases are expressed as `!requires` static_asserts — the
// ill-formed call is proven to have no viable overload without breaking the
// build, which keeps "two RMWs on one register is a compile error" itself
// under test.
#include <gtest/gtest.h>

#include <utility>

#include "resources/register_discipline.hpp"
#include "snapshot/dataplane.hpp"
#include "snapshot/typestate.hpp"

namespace speedlight::snap {
namespace {

using Sid0 = StageToken<0>;
using AfterSid = AfterAccess<0, Reg::Sid>;
using AfterSidLs = AfterAccess<AfterSid::mask, Reg::LastSeen>;
using Full = StageToken<kAllRegs>;

// --- Static structure of the token algebra ---------------------------------

static_assert(Sid0::mask == 0);
static_assert(AfterSid::mask == reg_bit(Reg::Sid));
static_assert(Full::mask == kAllRegs);
static_assert(!Sid0::accessed<Reg::Sid>);
static_assert(AfterSid::accessed<Reg::Sid>);
static_assert(!AfterSid::accessed<Reg::Value>);

// A fresh token may access anything; a spent token only what remains.
static_assert(CanAccess<Sid0, Reg::Sid>);
static_assert(CanAccess<Sid0, Reg::LastSeen>);
static_assert(!CanAccess<AfterSid, Reg::Sid>);
static_assert(CanAccess<AfterSid, Reg::LastSeen>);
static_assert(!CanAccess<Full, Reg::Sid>);
static_assert(!CanAccess<Full, Reg::LastSeen>);
static_assert(!CanAccess<Full, Reg::Value>);

// Partially-spent tokens are move-only (no duplicating a pass mid-flight);
// the fresh token is freely constructible.
static_assert(std::is_default_constructible_v<Sid0>);
static_assert(!std::is_default_constructible_v<AfterSid>);
static_assert(!std::is_copy_constructible_v<AfterSid>);
static_assert(std::is_move_constructible_v<AfterSid>);
static_assert(!std::is_copy_constructible_v<Full>);

// --- Rejection: the acceptance-criterion compile errors --------------------

template <typename RF, typename Token>
concept SecondSidRmw = requires(RF& rf, Token t) {
  rf.with_sid(std::move(t), [](VirtualSid&) {});
};
template <typename RF, typename Token>
concept SecondLastSeenRmw = requires(RF& rf, Token t) {
  rf.with_last_seen(std::move(t), std::uint16_t{0}, [](VirtualSid&) {});
};
template <typename RF, typename Token>
concept SecondValueRmw = requires(RF& rf, Token t) {
  rf.with_value_slot(std::move(t), VirtualSid{0}, [](SlotValue&) {});
};
template <typename RF, typename Token>
concept CanSkipSid = requires(RF& rf, Token t) {
  rf.template skip<Reg::Sid>(std::move(t));
};
template <typename RF, typename Token>
concept CanRetire = requires(Token t) { retire(std::move(t)); };

// First access is viable...
static_assert(SecondSidRmw<RegisterFile, Sid0>);
static_assert(SecondLastSeenRmw<RegisterFile, Sid0>);
static_assert(SecondValueRmw<RegisterFile, Sid0>);
// ...a second RMW of the same register in the same pass is not.
static_assert(!SecondSidRmw<RegisterFile, AfterSid>);
static_assert(!SecondLastSeenRmw<RegisterFile, AfterSidLs>);
static_assert(!SecondValueRmw<RegisterFile, Full>);
// Neither is skip()ing a register the pass already touched...
static_assert(!CanSkipSid<RegisterFile, AfterSid>);
// ...nor retiring a pass that has not accounted for every register.
static_assert(CanRetire<RegisterFile, Full>);
static_assert(!CanRetire<RegisterFile, Sid0>);
static_assert(!CanRetire<RegisterFile, AfterSid>);
static_assert(!CanRetire<RegisterFile, AfterSidLs>);

// --- Declared pattern vs the Tofino model ----------------------------------

static_assert(pass_access_pattern(false).stateful_register_accesses() == 2);
static_assert(pass_access_pattern(true).stateful_register_accesses() == 3);
static_assert(res::stateful_rmws_per_packet(res::Variant::PacketCount) == 6);
static_assert(res::stateful_rmws_per_packet(res::Variant::ChannelState) == 8);

// --- Runtime semantics of the gated accessors ------------------------------

TEST(RegisterFile, TokenChainThreadsOnePassPerRegister) {
  RegisterFile rf(/*num_channels=*/2, /*slots=*/4);
  StageToken<0> pass;
  auto t1 = rf.with_last_seen(pass, 1, [](VirtualSid& ls) { ls = 7; });
  auto t2 = rf.with_sid(std::move(t1), [](VirtualSid& sid) { sid = 9; });
  auto t3 = rf.with_value_slot(std::move(t2), 9, [](SlotValue& s) {
    s.local_value = 42;
    s.initialized = true;
  });
  retire(std::move(t3));

  EXPECT_EQ(rf.last_seen(1), 7u);
  EXPECT_EQ(rf.last_seen(0), 0u);
  EXPECT_EQ(rf.sid(), 9u);
  EXPECT_EQ(rf.slot(9).local_value, 42u);  // 9 % 4 == slot 1
  EXPECT_EQ(rf.slot(1).local_value, 42u);
  EXPECT_TRUE(rf.slot(1).initialized);
}

TEST(RegisterFile, SkipsRetireWithoutTouchingState) {
  RegisterFile rf(1, 2);
  StageToken<0> pass;
  auto t = rf.with_sid(pass, [](VirtualSid& sid) { ++sid; });
  retire(rf.skip<Reg::Value>(rf.skip<Reg::LastSeen>(std::move(t))));
  EXPECT_EQ(rf.sid(), 1u);
  EXPECT_EQ(rf.last_seen(0), 0u);
  EXPECT_FALSE(rf.slot(0).initialized);
}

}  // namespace
}  // namespace speedlight::snap
