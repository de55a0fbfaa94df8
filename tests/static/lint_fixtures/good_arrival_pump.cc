// lint-path: src/runtime/fixture_arrival_pump_ok.cc
// lint-expect: none
//
// The approved arrival-pump shape: route against each domain's lock-free
// Load() read, push through the marked inbox surface (non-blocking first,
// blocking fallback), publish per-pump counters as plain slots read after
// join. No mutex primitive appears anywhere in the body.

namespace schemble {

struct PumpOkFixture {
  void ArrivalPumpLoop(int pump) {
    loads_.clear();
    for (const Domain& domain : domains_) {
      loads_.push_back(domain.Load());  // crosses(domain)
    }
    const int d = router_->Route(pump, loads_);
    const size_t pushed =
        domains_[d].TryPushRoutedAll(batch_);  // crosses(domain)
    if (pushed < batch_.size()) {
      domains_[d].PushRouted(batch_);  // crosses(domain)
    }
    routed_[pump] += 1;
  }

  RoutingPolicy* router_ = nullptr;
  std::vector<Domain> domains_;
  std::vector<int> batch_;
  std::vector<long> routed_;
  std::vector<DomainLoad> loads_;
};

}  // namespace schemble
