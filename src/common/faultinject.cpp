#include "src/common/faultinject.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

namespace apnn::faultinject {

namespace {

struct SiteState {
  std::int64_t trigger_at = 0;  // 1-based traversal ordinal of the first fire
  int repeat = 1;               // fires on [trigger_at, trigger_at + repeat)
  std::chrono::milliseconds delay{0};
  std::int64_t traversals = 0;
  std::int64_t fires = 0;
};

std::mutex& registry_mu() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, SiteState>& registry() {
  static std::map<std::string, SiteState> sites;
  return sites;
}

bool is_known(const std::string& site) {
  for (const std::string& s : known_sites()) {
    if (s == site) return true;
  }
  return false;
}

}  // namespace

namespace detail {

std::atomic<int> g_armed_sites{0};

void point_slow(const char* site) {
  std::chrono::milliseconds delay{0};
  {
    std::lock_guard<std::mutex> lock(registry_mu());
    auto it = registry().find(site);
    if (it == registry().end()) return;
    SiteState& s = it->second;
    ++s.traversals;
    const bool fire =
        s.traversals >= s.trigger_at &&
        (s.repeat < 0 || s.traversals < s.trigger_at + s.repeat);
    if (!fire) return;
    ++s.fires;
    if (s.delay.count() == 0) {
      throw FaultInjected(std::string("fault injected at ") + site +
                          " (traversal " + std::to_string(s.traversals) +
                          ")");
    }
    delay = s.delay;  // sleep outside the lock: a stall must not serialize
                      // other sites' traversals
  }
  std::this_thread::sleep_for(delay);
}

}  // namespace detail

const std::vector<std::string>& known_sites() {
  static const std::vector<std::string> sites = {
      kSessionRun, kReplicaDispatch, kAdmission};
  return sites;
}

void arm(const std::string& site, std::int64_t trigger_at, int repeat,
         std::chrono::milliseconds delay) {
  APNN_CHECK(is_known(site)) << "unknown fault site '" << site << "'";
  APNN_CHECK(trigger_at >= 1) << "trigger ordinal is 1-based";
  APNN_CHECK(repeat == -1 || repeat >= 1);
  std::lock_guard<std::mutex> lock(registry_mu());
  const bool fresh = registry().find(site) == registry().end();
  SiteState s;
  s.trigger_at = trigger_at;
  s.repeat = repeat;
  s.delay = delay;
  registry()[site] = s;
  if (fresh) detail::g_armed_sites.fetch_add(1, std::memory_order_relaxed);
}

void disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mu());
  if (registry().erase(site) > 0) {
    detail::g_armed_sites.fetch_sub(1, std::memory_order_relaxed);
  }
}

void disarm_all() {
  std::lock_guard<std::mutex> lock(registry_mu());
  detail::g_armed_sites.fetch_sub(static_cast<int>(registry().size()),
                                  std::memory_order_relaxed);
  registry().clear();
}

std::int64_t traversals(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mu());
  auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.traversals;
}

std::int64_t fires(const std::string& site) {
  std::lock_guard<std::mutex> lock(registry_mu());
  auto it = registry().find(site);
  return it == registry().end() ? 0 : it->second.fires;
}

bool parse_and_arm(const std::string& spec, std::string* err) {
  // site:n[:xR|:delay=Dms]
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    if (err) *err = "expected site:<n>, got '" + spec + "'";
    return false;
  }
  const std::string site = spec.substr(0, colon);
  if (!is_known(site)) {
    if (err) {
      *err = "unknown fault site '" + site + "' (known:";
      for (const std::string& s : known_sites()) *err += " " + s;
      *err += ")";
    }
    return false;
  }
  std::string rest = spec.substr(colon + 1);
  std::string extra;
  const std::size_t colon2 = rest.find(':');
  if (colon2 != std::string::npos) {
    extra = rest.substr(colon2 + 1);
    rest = rest.substr(0, colon2);
  }
  char* end = nullptr;
  const long long n = std::strtoll(rest.c_str(), &end, 10);
  if (end == rest.c_str() || *end != '\0' || n < 1) {
    if (err) *err = "bad trigger ordinal '" + rest + "' (need an int >= 1)";
    return false;
  }
  int repeat = 1;
  std::chrono::milliseconds delay{0};
  if (!extra.empty()) {
    if (extra[0] == 'x') {
      const std::string r = extra.substr(1);
      const long long rv = std::strtoll(r.c_str(), &end, 10);
      if (end == r.c_str() || *end != '\0' || (rv != -1 && rv < 1)) {
        if (err) *err = "bad repeat '" + extra + "' (xR, R >= 1 or -1)";
        return false;
      }
      repeat = static_cast<int>(rv);
    } else if (extra.rfind("delay=", 0) == 0 && extra.size() > 8 &&
               extra.compare(extra.size() - 2, 2, "ms") == 0) {
      const std::string d = extra.substr(6, extra.size() - 8);
      const long long dv = std::strtoll(d.c_str(), &end, 10);
      if (end == d.c_str() || *end != '\0' || dv < 1) {
        if (err) *err = "bad delay '" + extra + "' (delay=Dms, D >= 1)";
        return false;
      }
      delay = std::chrono::milliseconds(dv);
    } else {
      if (err) *err = "bad fault modifier '" + extra + "' (xR or delay=Dms)";
      return false;
    }
  }
  arm(site, n, repeat, delay);
  return true;
}

}  // namespace apnn::faultinject
