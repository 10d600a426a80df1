// Deterministic fault injection for robustness tests and chaos drills.
//
// Production code marks its interesting failure points with
// `faultinject::point(kSomeSite)`. Unarmed — the normal state — a point is
// one relaxed atomic load and a predictable branch; no lock, no allocation,
// no per-site counter, so the hooks may sit on serving hot paths (the
// serving bench gates their cost). Tests and `apnn_cli serve --fault` arm a
// site by name with a 1-based trigger ordinal: the nth traversal of that
// site then either throws FaultInjected (simulating a crash at exactly that
// point) or sleeps (simulating a stall), deterministically — the same
// arming against the same single-threaded traversal order always fires at
// the same place, which is what lets tests/test_chaos.cpp assert that every
// *non*-injected request still completes bit-exactly.
//
// Sites are a closed registry (known_sites()) so a typo in `--fault` is an
// error instead of a silently-armed nothing. The registry is global and
// process-wide: arm/disarm from one controlling thread (tests, CLI setup);
// traversals from any number of threads are safe.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.hpp"

namespace apnn::faultinject {

/// Thrown by an armed site (distinct type so tests can tell an injected
/// fault from an organic failure; still an apnn::Error so production
/// catch-paths need no special case).
class FaultInjected : public Error {
 public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

// The site registry. Adding a site means: a constant here, its name in
// known_sites() (faultinject.cpp), a point() call at the marked code path,
// and a drill in tests/test_chaos.cpp.
inline constexpr const char* kSessionRun = "session.run";
inline constexpr const char* kReplicaDispatch = "replica.dispatch";
inline constexpr const char* kAdmission = "server.admission";

/// Every armable site name.
const std::vector<std::string>& known_sites();

/// Arms `site` (must be a known site) to fire on its `trigger_at`-th
/// traversal, 1-based, counted from this call. `repeat` controls how many
/// consecutive traversals fire from there on: 1 (default) fires exactly
/// once, -1 fires on every traversal from trigger_at onward (used to drive
/// a replica into quarantine). A zero `delay` means the firing traversal
/// throws FaultInjected; a positive delay means it sleeps that long instead
/// (a stall, not a crash — the stuck-replica drill). Re-arming a site
/// replaces its spec and resets its traversal count.
void arm(const std::string& site, std::int64_t trigger_at, int repeat = 1,
         std::chrono::milliseconds delay = std::chrono::milliseconds(0));

/// Disarms one site / every site. Counters for the site(s) are discarded.
void disarm(const std::string& site);
void disarm_all();

/// Traversals and fires observed for `site` since it was armed (0 when it
/// is not armed — unarmed traversals are deliberately not counted, that is
/// what keeps the unarmed hook free).
std::int64_t traversals(const std::string& site);
std::int64_t fires(const std::string& site);

/// Parses a CLI arming spec, "site:n", "site:n:xR" (repeat) or
/// "site:n:delay=Dms" — e.g. "replica.dispatch:3", "session.run:2:x-1",
/// "session.run:1:delay=3000ms". Returns false and fills *err on a malformed
/// spec or unknown site.
bool parse_and_arm(const std::string& spec, std::string* err);

namespace detail {
extern std::atomic<int> g_armed_sites;  ///< fast unarmed gate
void point_slow(const char* site);
}  // namespace detail

/// A fault-injection site. Free when nothing is armed anywhere in the
/// process; with any site armed, takes the registry lock and fires when
/// this site's spec says so.
inline void point(const char* site) {
  if (detail::g_armed_sites.load(std::memory_order_relaxed) == 0) return;
  detail::point_slow(site);
}

}  // namespace apnn::faultinject
