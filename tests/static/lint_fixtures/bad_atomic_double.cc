// lint-path: src/serving/fixture_atomic_double.cc
// lint-expect: atomic-double
// lint-expect: atomic-double
//
// std::atomic<double> in src/: a bare member and a bare local fire; a
// comment mentioning the type does not, and a line carrying
// `// atomic-double-ok:` (or following one) is let through.

namespace schemble {

struct AtomicDoubleFixture {
  void Add(double x) {
    // fires: no marker
    std::atomic<double> local{0.0};
    local.fetch_add(x);
    sum_.fetch_add(x);
  }

  // fires: no marker
  std::atomic<double> sum_{0.0};

  std::atomic<double> gauge_{0.0};  // atomic-double-ok: single writer

  // atomic-double-ok: written once per run, read after join
  std::atomic<double> last_{0.0};
};

}  // namespace schemble
