// lint-path: src/runtime/fixture_arrival_pump_ok.cc
// lint-expect: none
//
// The approved arrival-pump shape: route against each domain's lock-free
// Load() read, push through the marked inbox surface, publish the routed
// count as a plain slot read after join. No mutex primitive appears
// anywhere in the body.

namespace schemble {

struct PumpOkFixture {
  void ArrivalPumpLoop() {
    loads_.clear();
    for (const Domain& domain : domains_) {
      loads_.push_back(domain.Load());  // crosses(domain)
    }
    const int d = router_->Route(loads_);
    domains_[d].PushRouted(batch_);  // crosses(domain)
    routed_ += 1;
  }

  RoutingPolicy* router_ = nullptr;
  std::vector<Domain> domains_;
  std::vector<int> batch_;
  long routed_ = 0;
  std::vector<DomainLoad> loads_;
};

}  // namespace schemble
