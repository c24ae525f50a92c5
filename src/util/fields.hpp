// One field list per record type.
//
// A record that crosses a process boundary declares its fields once, in
// declaration order, as (key, member pointer) pairs:
//
//   template <typename F>
//   static constexpr void fields(F&& f) {
//     f("job", &CancelRecord::job);
//     f("at", &CancelRecord::at);
//     f("preempt", &CancelRecord::preempt);
//   }
//
// The binary codec (net/binstream), the JSON objects (io/serialize),
// equality and option handling all walk that list, so a field added to it
// reaches every one of them.  A type with invariants also declares
// `void check() const`, which throws std::invalid_argument naming the
// field; every reader of the type runs it.
#pragma once

#include <type_traits>
#include <utility>

namespace busytime::util {

struct AnyField {
  template <typename M>
  constexpr void operator()(const char*, M) const {}
};

template <typename T, typename = void>
struct HasFields : std::false_type {};
template <typename T>
struct HasFields<T, std::void_t<decltype(T::fields(AnyField{}))>> : std::true_type {};

template <typename T, typename = void>
struct HasCheck : std::false_type {};
template <typename T>
struct HasCheck<T, std::void_t<decltype(std::declval<const T&>().check())>>
    : std::true_type {};

/// Runs `record.check()` when T declares one.
template <typename T>
void check_fields(const T& record) {
  if constexpr (HasCheck<T>::value) record.check();
}

/// Field-by-field equality over T's list.
template <typename T>
bool fields_equal(const T& a, const T& b) {
  bool equal = true;
  T::fields([&](const char*, auto member) { equal = equal && a.*member == b.*member; });
  return equal;
}

}  // namespace busytime::util
