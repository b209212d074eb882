#include "services/availability.h"

#include <gtest/gtest.h>

#include "datasets/datacenters.h"
#include "datasets/submarine.h"
#include "graph/components.h"
#include "sim/monte_carlo.h"

namespace solarnet::services {
namespace {

// Line topology: NY (NA) - Bude (EU) - Singapore (AS) - Sydney (OC).
class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : net_("svc") {
    ny_ = add_node("NY", {40.7, -74.0}, "US");
    bude_ = add_node("Bude", {50.8, -4.5}, "GB");
    sg_ = add_node("Singapore", {1.35, 103.8}, "SG");
    syd_ = add_node("Sydney", {-33.9, 151.2}, "AU");
    atl_ = add_cable("atl", ny_, bude_);
    asia_ = add_cable("asia", bude_, sg_);
    oc_ = add_cable("oc", sg_, syd_);
  }
  topo::NodeId add_node(const char* name, geo::GeoPoint p, const char* cc) {
    return net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, 6000.0}};
    return net_.add_cable(std::move(c));
  }
  util::Bitset none() const { return util::Bitset(net_.cable_count()); }
  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bude_{}, sg_{}, syd_{};
  topo::CableId atl_{}, asia_{}, oc_{};
};

TEST_F(ServiceTest, HealthyNetworkFullyAvailable) {
  ServiceSpec svc;
  svc.name = "global-db";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}};  // NY + Singapore
  svc.write_quorum = 2;
  const AvailabilityReport r = evaluate_service(net_, none(), svc);
  EXPECT_DOUBLE_EQ(r.read_availability, 1.0);
  EXPECT_DOUBLE_EQ(r.write_availability, 1.0);
}

TEST_F(ServiceTest, PartitionSplitsQuorum) {
  ServiceSpec svc;
  svc.name = "global-db";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}};
  svc.write_quorum = 2;
  util::Bitset dead = none();
  dead.set(asia_);  // Europe/NA vs Asia/Oceania partition
  const AvailabilityReport r = evaluate_service(net_, dead, svc);
  // Reads survive on both sides (one replica each); writes die everywhere.
  EXPECT_DOUBLE_EQ(r.read_availability, 1.0);
  EXPECT_DOUBLE_EQ(r.write_availability, 0.0);
}

TEST_F(ServiceTest, QuorumOneKeepsWritesPerPartition) {
  ServiceSpec svc;
  svc.name = "multi-master";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}};
  svc.write_quorum = 1;
  util::Bitset dead = none();
  dead.set(asia_);
  const AvailabilityReport r = evaluate_service(net_, dead, svc);
  EXPECT_DOUBLE_EQ(r.write_availability, 1.0);
}

TEST_F(ServiceTest, SingleReplicaLosesFarSide) {
  ServiceSpec svc;
  svc.name = "us-only";
  svc.replicas = {{40.7, -74.0}};  // NY only
  svc.write_quorum = 1;
  util::Bitset dead = none();
  dead.set(atl_);  // NY isolated
  const AvailabilityReport r = evaluate_service(net_, dead, svc);
  // NY becomes its own island partition: clients attached to the same dark
  // landing station as the replica keep local service. In this 4-node toy
  // net both American anchors fall back to NY (nothing closer exists), so
  // NA and SA stay up; everyone else loses the service.
  for (const ContinentAvailability& c : r.per_continent) {
    if (c.continent == geo::Continent::kNorthAmerica ||
        c.continent == geo::Continent::kSouthAmerica) {
      EXPECT_TRUE(c.read_available) << geo::to_string(c.continent);
    } else {
      EXPECT_FALSE(c.read_available) << geo::to_string(c.continent);
    }
  }
  EXPECT_NEAR(r.read_availability, 0.075 + 0.055, 1e-9);  // NA + SA shares
}

TEST_F(ServiceTest, PerContinentBreakdown) {
  ServiceSpec svc;
  svc.name = "asia-db";
  svc.replicas = {{1.35, 103.8}};
  svc.write_quorum = 1;
  util::Bitset dead = none();
  dead.set(atl_);  // NA cut off
  const AvailabilityReport r = evaluate_service(net_, dead, svc);
  for (const ContinentAvailability& c : r.per_continent) {
    if (c.continent == geo::Continent::kNorthAmerica) {
      EXPECT_FALSE(c.read_available);
    }
    if (c.continent == geo::Continent::kAsia ||
        c.continent == geo::Continent::kOceania ||
        c.continent == geo::Continent::kEurope) {
      EXPECT_TRUE(c.read_available) << geo::to_string(c.continent);
    }
  }
}

TEST_F(ServiceTest, SpecValidation) {
  ServiceSpec bad;
  bad.name = "bad";
  EXPECT_THROW(evaluate_service(net_, none(), bad), std::invalid_argument);
  bad.replicas = {{0.0, 0.0}};
  bad.write_quorum = 2;  // quorum > replicas
  EXPECT_THROW(evaluate_service(net_, none(), bad), std::invalid_argument);
}

TEST(ContinentShares, SumToOne) {
  double total = 0.0;
  for (const auto& [cont, share] : continent_population_shares()) {
    total += share;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ServiceFromDatacenters, BuildsSpec) {
  const auto sites = datasets::datacenters_of(
      datasets::DataCenterOperator::kGoogle);
  std::vector<geo::GeoPoint> points;
  for (const auto& d : sites) points.push_back(d.location);
  const ServiceSpec spec = service_from_datacenters("google", points, 3);
  EXPECT_EQ(spec.replicas.size(), sites.size());
  EXPECT_EQ(spec.write_quorum, 3u);
}

TEST_F(ServiceTest, EvaluatorMatchesOneShotApi) {
  ServiceSpec svc;
  svc.name = "global-db";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}};
  svc.write_quorum = 2;
  ServiceEvaluator evaluator(net_, svc);
  util::Rng rng(77);
  for (int draw = 0; draw < 20; ++draw) {
    util::Bitset dead_bits(net_.cable_count());
    for (std::size_t c = 0; c < net_.cable_count(); ++c) {
      dead_bits.set(c, rng.bernoulli(0.4));
    }
    const AvailabilityReport ref = evaluate_service(net_, dead_bits, svc);
    const AvailabilityReport got = evaluator.evaluate(dead_bits);
    EXPECT_DOUBLE_EQ(got.read_availability, ref.read_availability);
    EXPECT_DOUBLE_EQ(got.write_availability, ref.write_availability);
    ASSERT_EQ(got.per_continent.size(), ref.per_continent.size());
    for (std::size_t i = 0; i < ref.per_continent.size(); ++i) {
      EXPECT_EQ(got.per_continent[i].read_available,
                ref.per_continent[i].read_available);
      EXPECT_EQ(got.per_continent[i].write_available,
                ref.per_continent[i].write_available);
    }
  }
}

// A landing station whose cables all died is a singleton component of the
// masked network, so it needs no special island rule: parties attached to
// that same dark station still reach each other, and two different dark
// stations never do.
TEST_F(ServiceTest, DarkStationsAreSingletonIslands) {
  util::Bitset dead = none();
  dead.set(atl_);  // NY dark
  dead.set(oc_);   // Sydney dark; Bude - Singapore stays lit
  ServiceSpec ny_only;
  ny_only.name = "ny";
  ny_only.replicas = {{40.7, -74.0}};
  ServiceSpec sydney_only;
  sydney_only.name = "sydney";
  sydney_only.replicas = {{-33.9, 151.2}};
  const AvailabilityReport ny = evaluate_service(net_, dead, ny_only);
  const AvailabilityReport syd = evaluate_service(net_, dead, sydney_only);
  ASSERT_EQ(ny.per_continent.size(), syd.per_continent.size());
  for (std::size_t i = 0; i < ny.per_continent.size(); ++i) {
    const geo::Continent c = ny.per_continent[i].continent;
    // The New York anchor attaches to the dark NY station itself.
    EXPECT_EQ(ny.per_continent[i].read_available,
              c == geo::Continent::kNorthAmerica ||
                  c == geo::Continent::kSouthAmerica)
        << geo::to_string(c);
    // Sydney's anchor shares only Sydney's dark station, never NY's.
    EXPECT_EQ(syd.per_continent[i].read_available,
              c == geo::Continent::kOceania)
        << geo::to_string(c);
  }
}

// Any labelling with the same-component relation gives the same report:
// the evaluator compares labels, never their values.
TEST_F(ServiceTest, LabelValuesAreArbitrary) {
  ServiceSpec svc;
  svc.name = "global-db";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}, {-33.9, 151.2}};
  svc.write_quorum = 2;
  const ServiceEvaluator evaluator(net_, svc);
  for (const topo::CableId cut : {atl_, asia_, oc_}) {
    util::Bitset dead = none();
    dead.set(cut);
    graph::ComponentScratch scratch;
    graph::ComponentResult cc;
    graph::connected_components(net_.csr(), net_.mask_for_failures(dead),
                                scratch, cc);
    std::vector<std::uint32_t> relabelled;
    for (const std::uint32_t c : cc.component) {
      relabelled.push_back(1000 - 7 * c);
    }
    AvailabilityReport from_dense;
    AvailabilityReport from_relabelled;
    evaluator.evaluate(cc.component, from_dense);
    evaluator.evaluate(relabelled, from_relabelled);
    EXPECT_EQ(from_dense.read_availability, from_relabelled.read_availability);
    EXPECT_EQ(from_dense.write_availability,
              from_relabelled.write_availability);
  }
}

// With no cable anywhere nothing attaches: replicas and anchors are all
// topo::kInvalidNode, and an unattached replica must never match an
// (equally unattached) client.
TEST(ServiceUnattached, InvalidReplicaNeverMatchesClient) {
  topo::InfrastructureNetwork net("dark");
  net.add_node({"NY", {40.7, -74.0}, "US", topo::NodeKind::kLandingPoint,
                true});
  ServiceSpec svc;
  svc.name = "nowhere";
  svc.replicas = {{40.7, -74.0}};
  const AvailabilityReport r =
      evaluate_service(net, util::Bitset(net.cable_count()), svc);
  EXPECT_EQ(r.read_availability, 0.0);
  EXPECT_EQ(r.write_availability, 0.0);
  for (const ContinentAvailability& c : r.per_continent) {
    EXPECT_FALSE(c.read_available) << geo::to_string(c.continent);
  }
}

TEST_F(ServiceTest, EvaluatorValidatesSpec) {
  ServiceSpec bad;
  bad.name = "bad";
  EXPECT_THROW(ServiceEvaluator(net_, bad), std::invalid_argument);
  bad.replicas = {{0.0, 0.0}};
  bad.write_quorum = 2;
  EXPECT_THROW(ServiceEvaluator(net_, bad), std::invalid_argument);
}

TEST_F(ServiceTest, SweepMatchesSerialPerDrawLoop) {
  ServiceSpec svc;
  svc.name = "global-db";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}};
  svc.write_quorum = 1;
  const sim::FailureSimulator simulator(net_, {});
  const auto model = gic::LatitudeBandFailureModel::s1();
  constexpr std::size_t kDraws = 40;
  constexpr std::uint64_t kSeed = 11;

  // Reference: the pre-sweep idiom — draw d from child stream d, one
  // evaluate_service call per draw.
  util::RunningStats ref_read, ref_write;
  const util::Rng base(kSeed);
  for (std::size_t d = 0; d < kDraws; ++d) {
    util::Rng rng = base.split(d);
    const auto dead = simulator.sample_cable_failures(model, rng);
    const auto report = evaluate_service(net_, dead, svc);
    ref_read.add(report.read_availability);
    ref_write.add(report.write_availability);
  }

  const AvailabilitySweep sweep =
      availability_sweep(simulator, model, svc, kDraws, kSeed, 1);
  EXPECT_EQ(sweep.draws, kDraws);
  EXPECT_EQ(sweep.read_availability.count(), kDraws);
  EXPECT_DOUBLE_EQ(sweep.read_availability.mean(), ref_read.mean());
  EXPECT_DOUBLE_EQ(sweep.write_availability.mean(), ref_write.mean());
  EXPECT_DOUBLE_EQ(sweep.read_availability.sample_stddev(),
                   ref_read.sample_stddev());
  EXPECT_DOUBLE_EQ(sweep.write_availability.sample_stddev(),
                   ref_write.sample_stddev());
}

TEST_F(ServiceTest, SweepBitIdenticalAcrossThreadCounts) {
  ServiceSpec svc;
  svc.name = "global-db";
  svc.replicas = {{40.7, -74.0}, {1.35, 103.8}};
  svc.write_quorum = 2;
  const sim::FailureSimulator simulator(net_, {});
  const auto model = gic::LatitudeBandFailureModel::s2();
  constexpr std::size_t kDraws = 100;  // > kDrawChunk so chunking kicks in
  const AvailabilitySweep serial =
      availability_sweep(simulator, model, svc, kDraws, 3, 1);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4},
                                    std::size_t{0}}) {
    const AvailabilitySweep parallel =
        availability_sweep(simulator, model, svc, kDraws, 3, threads);
    EXPECT_EQ(parallel.read_availability.mean(),
              serial.read_availability.mean())
        << "threads=" << threads;
    EXPECT_EQ(parallel.read_availability.sample_stddev(),
              serial.read_availability.sample_stddev())
        << "threads=" << threads;
    EXPECT_EQ(parallel.write_availability.mean(),
              serial.write_availability.mean())
        << "threads=" << threads;
    EXPECT_EQ(parallel.write_availability.sample_stddev(),
              serial.write_availability.sample_stddev())
        << "threads=" << threads;
  }
}

TEST_F(ServiceTest, SweepZeroDrawsStillValidatesSpec) {
  const sim::FailureSimulator simulator(net_, {});
  const auto model = gic::LatitudeBandFailureModel::s1();
  ServiceSpec bad;
  bad.name = "bad";
  EXPECT_THROW(availability_sweep(simulator, model, bad, 0, 1),
               std::invalid_argument);
  ServiceSpec ok;
  ok.name = "ok";
  ok.replicas = {{40.7, -74.0}};
  ok.write_quorum = 1;
  const AvailabilitySweep sweep = availability_sweep(simulator, model, ok, 0, 1);
  EXPECT_EQ(sweep.draws, 0u);
  EXPECT_EQ(sweep.read_availability.count(), 0u);
}

TEST(ServiceFullScale, GoogleFootprintBeatsFacebookUnderS1) {
  // §4.4.2 restated as a service-availability experiment: the broader
  // replica footprint keeps more of the world readable after a storm.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();

  auto spec_for = [&](datasets::DataCenterOperator op, const char* name) {
    std::vector<geo::GeoPoint> points;
    for (const auto& d : datasets::datacenters_of(op)) {
      points.push_back(d.location);
    }
    return service_from_datacenters(name, points, 1);
  };
  const ServiceSpec google =
      spec_for(datasets::DataCenterOperator::kGoogle, "google");
  const ServiceSpec facebook =
      spec_for(datasets::DataCenterOperator::kFacebook, "facebook");

  double google_total = 0.0;
  double facebook_total = 0.0;
  util::Rng rng(21);
  constexpr int kTrials = 20;
  for (int t = 0; t < kTrials; ++t) {
    const auto dead = simulator.sample_cable_failures(s1, rng);
    google_total += evaluate_service(net, dead, google).read_availability;
    facebook_total += evaluate_service(net, dead, facebook).read_availability;
  }
  EXPECT_GE(google_total, facebook_total);
  EXPECT_GT(google_total / kTrials, 0.3);
}

}  // namespace
}  // namespace solarnet::services
