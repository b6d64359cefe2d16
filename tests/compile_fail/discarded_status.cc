// Negative-compile fixture for the Status-discard contract.
//
// util::Status and util::Result<T> are class-level [[nodiscard]] and the
// tree builds with -Werror, so every line below marked
// `expect: unused-result` must be a compile error. tests/compile_fail_test.py
// builds this file twice with the project's own compiler and flags:
//   - as is, it must fail with an unused-result error at each marked
//     line and no other error;
//   - with SES_COMPILE_FAIL_CONTROL defined, DISCARD consumes every
//     value, and the file must compile. Without this control, any
//     unrelated compile error would pass as a rejected discard.
//
// Not seeded: gcc 12 does not diagnose a Status that is the right
// operand of a comma expression statement (`Count(), Save();`).

#include <functional>

#include "util/status.h"

namespace ses::util::compile_fail {

#ifdef SES_COMPILE_FAIL_CONTROL
template <typename T>
void Consume(const T&) {}
#define DISCARD(expr) Consume(expr)
#else
#define DISCARD(expr) expr
#endif

Status Save() { return Status::Ok(); }
Result<int> Load() { return 1; }

using Fallible = Status;
Fallible SaveThroughAlias() { return Status::Ok(); }

struct Store {
  Status Save() const { return Status::Ok(); }
};

struct Sink {
  virtual ~Sink() = default;
  virtual Status Flush() = 0;
};

struct NullSink final : Sink {
  Status Flush() override { return Status::Ok(); }
};

template <typename T>
void DropInTemplate(const T& source) {
  DISCARD(source.Save());  // expect: unused-result
}

// Consumed and propagated values are not discards: no error here in
// either build.
Status Propagate() {
  const Status status = Save();
  if (!status.ok()) return status;
  if (!Save().ok()) return Save();
  SES_RETURN_IF_ERROR(Save());
  SES_ASSIGN_OR_RETURN(const int loaded, Load());
  if (loaded < 0) return Status::InvalidArgument("negative");
  return Save();
}

// Reported at the expansion, not at the definition.
#define SAVE_IN_MACRO() DISCARD(Save())

void Shapes() {
  DISCARD(Save());  // expect: unused-result
  DISCARD(Save()), DISCARD(Save());  // expect: unused-result
  if (DISCARD(Save()); true) {  // expect: unused-result
  }
  auto lambda = [] { DISCARD(Save()); };  // expect: unused-result
  lambda();
  const Store store;
  DISCARD(store.Save());  // expect: unused-result
  DISCARD(Load());  // expect: unused-result
  DropInTemplate(store);
  const std::function<Status()> callback = Save;
  DISCARD(callback());  // expect: unused-result
  NullSink null_sink;
  Sink& sink = null_sink;
  DISCARD(sink.Flush());  // expect: unused-result
  DISCARD(SaveThroughAlias());  // expect: unused-result
  SAVE_IN_MACRO();  // expect: unused-result
}

}  // namespace ses::util::compile_fail
