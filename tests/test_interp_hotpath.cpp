// Hot-path machinery introduced by the PIC / incremental-shape / arg-stack
// overhaul: the polymorphic inline-cache state machine, lazy shape
// flattening, argument-stack re-entrancy, and the zero-allocation guarantee
// for steady-state calls.
//
// This binary replaces the global allocator with a counting shim (see the
// bottom of the file) so the allocation test can assert an exact zero; the
// shim is pass-through malloc and affects no other behavior.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "dom/page.h"
#include "interp/interpreter.h"
#include "interp/shape.h"
#include "js/atom.h"
#include "js/parser.h"
#include "js/refactor.h"
#include "support/clock.h"
#include "support/session.h"

namespace {
std::atomic<std::int64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};
}  // namespace

namespace jsceres::interp {
namespace {

// ---------------------------------------------------------------------------
// Polymorphic inline-cache state machine. The probe programs have exactly
// one named member site, so its cache id is 0 (the resolver assigns ids in
// AST traversal order).
// ---------------------------------------------------------------------------

JSObject* object_with_keys(Interpreter& interp, std::initializer_list<const char*> keys) {
  JSObject* obj = interp.make_object();
  double v = 1;
  for (const char* key : keys) {
    obj->set_property(interp.atoms(), key, Value::number(v++));
  }
  return obj;
}

TEST(PolymorphicIC, ReadSiteGrowsMonoToPolyAndHits) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");

  // Four shapes, all carrying `p` at different slot indices.
  JSObject* a = object_with_keys(interp, {"p"});
  JSObject* b = object_with_keys(interp, {"q", "p"});
  JSObject* c = object_with_keys(interp, {"q", "r", "p"});
  JSObject* d = object_with_keys(interp, {"q", "r", "s", "p"});

  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(a)}).as_number(), 1);
  auto dbg = interp.debug_read_ic(0);
  EXPECT_EQ(dbg.ways, 1);
  EXPECT_FALSE(dbg.megamorphic);
  EXPECT_EQ(dbg.shapes[0], a->shape());

  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(b)}).as_number(), 2);
  dbg = interp.debug_read_ic(0);
  EXPECT_EQ(dbg.ways, 2);
  EXPECT_EQ(dbg.shapes[0], b->shape());  // newest way rotates to the front
  EXPECT_EQ(dbg.shapes[1], a->shape());

  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(c)}).as_number(), 3);
  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(d)}).as_number(), 4);
  dbg = interp.debug_read_ic(0);
  EXPECT_EQ(dbg.ways, 4);
  EXPECT_FALSE(dbg.megamorphic);

  // All four shapes now hit without changing the cache contents.
  const Shape* front = interp.debug_read_ic(0).shapes[0];
  for (int round = 0; round < 3; ++round) {
    EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(a)}).as_number(), 1);
    EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(d)}).as_number(), 4);
  }
  dbg = interp.debug_read_ic(0);
  EXPECT_EQ(dbg.ways, 4);
  EXPECT_EQ(dbg.shapes[0], front);
}

TEST(PolymorphicIC, LruRotationEvictsOldestWay) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");

  JSObject* a = object_with_keys(interp, {"p"});
  JSObject* b = object_with_keys(interp, {"b1", "p"});
  JSObject* c = object_with_keys(interp, {"c1", "c2", "p"});
  JSObject* d = object_with_keys(interp, {"d1", "d2", "d3", "p"});
  JSObject* e = object_with_keys(interp, {"e1", "e2", "e3", "e4", "p"});
  for (JSObject* o : {a, b, c, d}) {
    interp.call(get, Value::undefined(), {Value::object(o)});
  }
  // Cache full: [d, c, b, a]. A fifth shape rotates the oldest (a) out.
  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(e)}).as_number(), 5);
  const auto dbg = interp.debug_read_ic(0);
  EXPECT_EQ(dbg.ways, 4);
  EXPECT_EQ(dbg.shapes[0], e->shape());
  EXPECT_EQ(dbg.shapes[1], d->shape());
  EXPECT_EQ(dbg.shapes[2], c->shape());
  EXPECT_EQ(dbg.shapes[3], b->shape());
}

TEST(PolymorphicIC, SustainedThrashGoesMegamorphicAndStaysCorrect) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");

  std::vector<JSObject*> objs;
  for (int i = 0; i < 16; ++i) {
    JSObject* obj = interp.make_object();
    for (int pad = 0; pad < i; ++pad) {
      obj->set_property(interp.atoms(),
                        "mega_pad" + std::to_string(i) + "_" + std::to_string(pad),
                        Value::number(0));
    }
    obj->set_property(interp.atoms(), "p", Value::number(i));
    objs.push_back(std::move(obj));
  }
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(
        interp.call(get, Value::undefined(), {Value::object(objs[std::size_t(i)])}).as_number(), i);
  }
  const auto dbg = interp.debug_read_ic(0);
  EXPECT_TRUE(dbg.megamorphic);
  EXPECT_EQ(dbg.ways, 0);  // probes stop; every access resolves generically
  // Megamorphic reads remain correct, including back on the earliest shapes.
  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(objs[0])}).as_number(), 0);
  EXPECT_DOUBLE_EQ(interp.call(get, Value::undefined(), {Value::object(objs[7])}).as_number(), 7);
  EXPECT_TRUE(interp.debug_read_ic(0).megamorphic);
}

TEST(PolymorphicIC, MegamorphicReadSiteRecachesAfterStableStreak) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");

  // Parade 16 distinct shapes through the site to trip it megamorphic.
  std::vector<JSObject*> objs;
  for (int i = 0; i < 16; ++i) {
    JSObject* obj = interp.make_object();
    for (int pad = 0; pad < i; ++pad) {
      obj->set_property(interp.atoms(),
                        "rc_pad" + std::to_string(i) + "_" + std::to_string(pad),
                        Value::number(0));
    }
    obj->set_property(interp.atoms(), "p", Value::number(i));
    objs.push_back(std::move(obj));
  }
  for (int i = 0; i < 16; ++i) {
    interp.call(get, Value::undefined(), {Value::object(objs[std::size_t(i)])});
  }
  ASSERT_TRUE(interp.debug_read_ic(0).megamorphic);

  // A stable shape (distinct from the parade's last) must survive
  // kRecacheHits - 1 = 15 generic accesses without flipping the site...
  JSObject* stable = object_with_keys(interp, {"s1", "p"});
  for (int i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(
        interp.call(get, Value::undefined(), {Value::object(stable)}).as_number(), 2);
    EXPECT_TRUE(interp.debug_read_ic(0).megamorphic);
    EXPECT_EQ(interp.debug_read_ic(0).ways, 0);
  }
  // ...and the 16th consecutive access re-caches: the site leaves the
  // megamorphic state and that same access installs its way.
  EXPECT_DOUBLE_EQ(
      interp.call(get, Value::undefined(), {Value::object(stable)}).as_number(), 2);
  auto dbg = interp.debug_read_ic(0);
  EXPECT_FALSE(dbg.megamorphic);
  EXPECT_EQ(dbg.ways, 1);
  EXPECT_EQ(dbg.shapes[0], stable->shape());

  // The recovered cache serves hits again, and can grow polymorphic anew.
  EXPECT_DOUBLE_EQ(
      interp.call(get, Value::undefined(), {Value::object(objs[0])}).as_number(), 0);
  dbg = interp.debug_read_ic(0);
  EXPECT_FALSE(dbg.megamorphic);
  EXPECT_EQ(dbg.ways, 2);
  EXPECT_EQ(dbg.shapes[0], objs[0]->shape());
  EXPECT_EQ(dbg.shapes[1], stable->shape());
}

TEST(PolymorphicIC, AlternatingShapesNeverAssembleRecacheStreak) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");

  std::vector<JSObject*> objs;
  for (int i = 0; i < 16; ++i) {
    JSObject* obj = interp.make_object();
    for (int pad = 0; pad < i; ++pad) {
      obj->set_property(interp.atoms(),
                        "alt_pad" + std::to_string(i) + "_" + std::to_string(pad),
                        Value::number(0));
    }
    obj->set_property(interp.atoms(), "p", Value::number(i));
    objs.push_back(std::move(obj));
  }
  for (int i = 0; i < 16; ++i) {
    interp.call(get, Value::undefined(), {Value::object(objs[std::size_t(i)])});
  }
  ASSERT_TRUE(interp.debug_read_ic(0).megamorphic);

  // A genuinely bimorphic thrash resets the streak on every flip: far more
  // than kRecacheHits total accesses, never kRecacheHits consecutive.
  for (int round = 0; round < 40; ++round) {
    JSObject* obj = objs[std::size_t(round % 2)];
    EXPECT_DOUBLE_EQ(
        interp.call(get, Value::undefined(), {Value::object(obj)}).as_number(),
        round % 2);
  }
  EXPECT_TRUE(interp.debug_read_ic(0).megamorphic);
  EXPECT_EQ(interp.debug_read_ic(0).ways, 0);
}

TEST(PolymorphicIC, ChurningPrototypeUnderStableReceiverStaysMegamorphic) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");

  // Parade 16 distinct shapes through the site to trip it megamorphic.
  std::vector<JSObject*> objs;
  for (int i = 0; i < 16; ++i) {
    JSObject* obj = interp.make_object();
    for (int pad = 0; pad < i; ++pad) {
      obj->set_property(interp.atoms(),
                        "ph_pad" + std::to_string(i) + "_" + std::to_string(pad),
                        Value::number(0));
    }
    obj->set_property(interp.atoms(), "p", Value::number(i));
    objs.push_back(std::move(obj));
  }
  for (int i = 0; i < 16; ++i) {
    interp.call(get, Value::undefined(), {Value::object(objs[std::size_t(i)])});
  }
  ASSERT_TRUE(interp.debug_read_ic(0).megamorphic);
  const std::uint64_t recaches_before = interp.ic_stats().recaches;

  // `p` lives on the receiver's direct prototype, and the prototype
  // alternates between two shapes while the receiver's own shape never
  // changes. The re-cache streak tracks the (receiver shape, holder shape)
  // PAIR, so it resets on every flip; a streak over the receiver shape
  // alone would re-cache after 16 accesses and then miss on every flip.
  JSObject* receiver = object_with_keys(interp, {"ph_r"});
  JSObject* proto_a = object_with_keys(interp, {"p"});
  JSObject* proto_b = object_with_keys(interp, {"ph_b", "p"});
  ASSERT_NE(proto_a->shape(), proto_b->shape());
  for (int round = 0; round < 40; ++round) {
    receiver->set_prototype(round % 2 == 0 ? proto_a : proto_b);
    EXPECT_DOUBLE_EQ(
        interp.call(get, Value::undefined(), {Value::object(receiver)}).as_number(),
        round % 2 == 0 ? 1 : 2);
  }
  EXPECT_TRUE(interp.debug_read_ic(0).megamorphic);
  EXPECT_EQ(interp.debug_read_ic(0).ways, 0);
  EXPECT_EQ(interp.ic_stats().recaches, recaches_before);

  // Hold the holder still too and the pair streak assembles: 15 accesses
  // stay megamorphic, the 16th re-caches a proto way for this exact pair.
  receiver->set_prototype(proto_a);
  for (int i = 0; i < 15; ++i) {
    EXPECT_DOUBLE_EQ(
        interp.call(get, Value::undefined(), {Value::object(receiver)}).as_number(), 1);
    EXPECT_TRUE(interp.debug_read_ic(0).megamorphic);
  }
  EXPECT_DOUBLE_EQ(
      interp.call(get, Value::undefined(), {Value::object(receiver)}).as_number(), 1);
  auto dbg = interp.debug_read_ic(0);
  EXPECT_FALSE(dbg.megamorphic);
  EXPECT_EQ(dbg.ways, 1);
  EXPECT_EQ(dbg.shapes[0], receiver->shape());
  EXPECT_EQ(interp.ic_stats().recaches, recaches_before + 1);

  // The recovered proto way serves hits without further misses.
  const std::uint64_t misses_after = interp.ic_stats().read_misses;
  EXPECT_DOUBLE_EQ(
      interp.call(get, Value::undefined(), {Value::object(receiver)}).as_number(), 1);
  EXPECT_EQ(interp.ic_stats().read_misses, misses_after);
  EXPECT_EQ(interp.debug_read_ic(0).ways, 1);
}

TEST(PolymorphicIC, ICStatsTrackTheSiteStateMachine) {
  VirtualClock clock;
  Interpreter interp(js::parse("function get(o) { return o.p; }"), clock);
  interp.run();
  const Value get = interp.global("get");
  const std::uint64_t base_hits = interp.ic_stats().read_hits;
  const std::uint64_t base_misses = interp.ic_stats().read_misses;

  // First access misses (installs the way), the next nine hit.
  JSObject* obj = object_with_keys(interp, {"p"});
  for (int i = 0; i < 10; ++i) {
    interp.call(get, Value::undefined(), {Value::object(obj)});
  }
  EXPECT_EQ(interp.ic_stats().read_misses, base_misses + 1);
  EXPECT_EQ(interp.ic_stats().read_hits, base_hits + 9);

  // A 16-shape parade trips the site; the trip is counted exactly once.
  const std::uint64_t base_trips = interp.ic_stats().megamorphic_trips;
  for (int i = 0; i < 16; ++i) {
    JSObject* thrash = interp.make_object();
    for (int pad = 0; pad <= i; ++pad) {
      thrash->set_property(interp.atoms(),
                           "st_pad" + std::to_string(i) + "_" + std::to_string(pad),
                           Value::number(0));
    }
    thrash->set_property(interp.atoms(), "p", Value::number(i));
    interp.call(get, Value::undefined(), {Value::object(thrash)});
  }
  ASSERT_TRUE(interp.debug_read_ic(0).megamorphic);
  EXPECT_EQ(interp.ic_stats().megamorphic_trips, base_trips + 1);

  // A stable streak re-caches; the recache is counted exactly once.
  const std::uint64_t base_recaches = interp.ic_stats().recaches;
  for (int i = 0; i < 16; ++i) {
    interp.call(get, Value::undefined(), {Value::object(obj)});
  }
  EXPECT_FALSE(interp.debug_read_ic(0).megamorphic);
  EXPECT_EQ(interp.ic_stats().recaches, base_recaches + 1);
}

TEST(PolymorphicIC, MegamorphicWriteSiteRecachesAfterStableStreak) {
  VirtualClock clock;
  Interpreter interp(js::parse("function put(o, v) { o.p = v; }"), clock);
  interp.run();
  const Value put = interp.global("put");

  std::vector<JSObject*> objs;
  for (int i = 0; i < 16; ++i) {
    JSObject* obj = interp.make_object();
    for (int pad = 0; pad < i + 1; ++pad) {
      obj->set_property(interp.atoms(),
                        "wr_pad" + std::to_string(i) + "_" + std::to_string(pad),
                        Value::number(0));
    }
    obj->set_property(interp.atoms(), "p", Value::number(i));
    objs.push_back(std::move(obj));
  }
  for (int i = 0; i < 16; ++i) {
    interp.call(put, Value::undefined(),
                {Value::object(objs[std::size_t(i)]), Value::number(i)});
  }
  ASSERT_TRUE(interp.debug_write_ic(0).megamorphic);

  // 16 consecutive in-place stores through one shape re-cache the site.
  JSObject* stable = object_with_keys(interp, {"ws", "p"});
  for (int i = 0; i < 16; ++i) {
    interp.call(put, Value::undefined(),
                {Value::object(stable), Value::number(100 + i)});
  }
  const auto dbg = interp.debug_write_ic(0);
  EXPECT_FALSE(dbg.megamorphic);
  EXPECT_EQ(dbg.ways, 1);
  EXPECT_EQ(dbg.shapes[0], stable->shape());
  EXPECT_FALSE(dbg.is_transition[0]);
  EXPECT_DOUBLE_EQ(stable->own_property(interp.atoms(), std::string("p"))->as_number(), 115);
}

TEST(PolymorphicIC, WriteSiteCachesTransitionTarget) {
  VirtualClock clock;
  Interpreter interp(js::parse("function put(o, v) { o.q = v; }"), clock);
  interp.run();
  const Value put = interp.global("put");

  JSObject* o1 = object_with_keys(interp, {"base"});
  JSObject* o2 = object_with_keys(interp, {"base"});
  ASSERT_EQ(o1->shape(), o2->shape());

  interp.call(put, Value::undefined(), {Value::object(o1), Value::number(10)});
  auto dbg = interp.debug_write_ic(0);
  EXPECT_EQ(dbg.ways, 1);
  EXPECT_TRUE(dbg.is_transition[0]);  // property-add way caches the target

  // Same starting shape: the cached transition appends without resolving,
  // and both objects land on the identical (deduplicated) shape.
  interp.call(put, Value::undefined(), {Value::object(o2), Value::number(20)});
  EXPECT_EQ(interp.debug_write_ic(0).ways, 1);
  EXPECT_EQ(o1->shape(), o2->shape());
  EXPECT_DOUBLE_EQ(o1->own_property(interp.atoms(), std::string("q"))->as_number(), 10);
  EXPECT_DOUBLE_EQ(o2->own_property(interp.atoms(), std::string("q"))->as_number(), 20);

  // o1 now owns `q`: the same site sees the post-transition shape and adds
  // an in-place-store way next to the transition way.
  interp.call(put, Value::undefined(), {Value::object(o1), Value::number(30)});
  dbg = interp.debug_write_ic(0);
  EXPECT_EQ(dbg.ways, 2);
  EXPECT_FALSE(dbg.is_transition[0]);
  EXPECT_EQ(dbg.shapes[0], o1->shape());
  EXPECT_DOUBLE_EQ(o1->own_property(interp.atoms(), std::string("q"))->as_number(), 30);
}

// ---------------------------------------------------------------------------
// Incremental shapes: slots must be stable across lazy flattening, deep
// chains must flatten on their second lookup, and concurrent growth of one
// transition subtree must be race-free (this test runs under TSan in CI).
// Each test grows a tree of its own, keyed by its own atom space — what one
// program's interpreters share.
// ---------------------------------------------------------------------------

TEST(IncrementalShape, SlotsStableAcrossLazyFlattening) {
  js::AtomSpace atoms;
  const auto root = Shape::make_root();
  const Shape* shape = root.get();
  std::vector<js::Atom> keys;
  for (int i = 0; i < 12; ++i) {
    keys.push_back(atoms.intern("ishape_a_" + std::to_string(i)));
    shape = shape->transition(keys.back());
  }
  EXPECT_EQ(shape->slot_count(), 12u);
  EXPECT_FALSE(shape->flattened_for_test());
  EXPECT_EQ(shape->root(), root.get());

  std::vector<std::int32_t> before;
  for (const js::Atom& atom : keys) before.push_back(shape->slot_of(atom));
  // Depth 12 > kDeepChain: the second round of lookups runs flattened.
  EXPECT_TRUE(shape->flattened_for_test());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(before[i], std::int32_t(i));
    EXPECT_EQ(shape->slot_of(keys[i]), std::int32_t(i));
  }
  EXPECT_EQ(shape->slot_of(atoms.intern("ishape_a_missing")), -1);
  // Enumeration order is insertion order.
  ASSERT_EQ(shape->keys().size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) EXPECT_EQ(shape->keys()[i], keys[i]);
}

TEST(IncrementalShape, DeepChainFlattensOnSecondLookupOnly) {
  js::AtomSpace atoms;
  const auto root = Shape::make_root();
  js::Atom first = atoms.intern("ishape_b_0");
  const Shape* shape = root->transition(first);
  for (int i = 1; i < 10; ++i) {
    shape = shape->transition(atoms.intern("ishape_b_" + std::to_string(i)));
  }
  EXPECT_EQ(shape->slot_of(first), 0);  // first lookup: plain chain walk
  EXPECT_FALSE(shape->flattened_for_test());
  EXPECT_EQ(shape->slot_of(first), 0);  // second lookup materializes
  EXPECT_TRUE(shape->flattened_for_test());
}

TEST(IncrementalShape, ShallowChainFlattensWhenHot) {
  js::AtomSpace atoms;
  const auto root = Shape::make_root();
  const Shape* shape = root->transition(atoms.intern("ishape_c_0"))
                           ->transition(atoms.intern("ishape_c_1"));
  const js::Atom probe = atoms.intern("ishape_c_0");
  for (int i = 0; i < int(Shape::kHotFlattenLookups) - 1; ++i) {
    EXPECT_EQ(shape->slot_of(probe), 0);
    EXPECT_FALSE(shape->flattened_for_test());
  }
  EXPECT_EQ(shape->slot_of(probe), 0);
  EXPECT_TRUE(shape->flattened_for_test());
}

TEST(IncrementalShape, ConcurrentTransitionGrowthIsRaceFreeAndDeduplicated) {
  constexpr int kThreads = 8;
  constexpr int kDepth = 24;
  js::AtomSpace atoms;
  const auto root = Shape::make_root();
  // Pre-intern so the threads race on the shape tree, not the atom space.
  std::vector<js::Atom> shared_keys;
  for (int i = 0; i < kDepth; ++i) {
    shared_keys.push_back(atoms.intern("ishape_d_" + std::to_string(i)));
  }
  std::vector<const Shape*> results(kThreads, nullptr);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &atoms, &root, &shared_keys, &results] {
      // Every thread builds the same chain (racing on each link's
      // transition map) and probes/flattens while others still build.
      const Shape* shape = root.get();
      for (int i = 0; i < kDepth; ++i) {
        shape = shape->transition(shared_keys[std::size_t(i)]);
        EXPECT_EQ(shape->slot_of(shared_keys[0]), 0);
      }
      // Private divergence at the tip must not disturb the shared chain.
      const Shape* tip =
          shape->transition(atoms.intern("ishape_d_tip_" + std::to_string(t)));
      EXPECT_EQ(tip->slot_count(), kDepth + 1u);
      EXPECT_EQ(std::size_t(tip->keys().size()), std::size_t(kDepth) + 1);
      results[std::size_t(t)] = shape;
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0], results[std::size_t(t)]);  // one tree, shared nodes
  }
  for (int i = 0; i < kDepth; ++i) {
    EXPECT_EQ(results[0]->slot_of(shared_keys[std::size_t(i)]), i);
  }
}

// ---------------------------------------------------------------------------
// Program-owned atoms and shapes: a program's names and hidden classes live
// and die with it.
// ---------------------------------------------------------------------------

TEST(ProgramUniverse, DestroyingAProgramFreesItsAtomsAndShapesAtOnce) {
  const js::Atom empty_atom;  // the prefix's "" exists before the baseline
  ASSERT_TRUE(empty_atom.empty());
  const std::size_t atoms_before = js::atom_table_size();
  const std::size_t shapes_before = Shape::live_count();
  {
    const js::Program program = js::parse(
        "var universe_probe = {fresh_alpha: 1, fresh_beta: 2};"
        "universe_probe['fresh_' + 'gamma'] = 3;"
        "var fresh_total = universe_probe.fresh_alpha + universe_probe.fresh_gamma;");
    VirtualClock clock;
    {
      Interpreter interp(program, clock);
      interp.run();
      EXPECT_DOUBLE_EQ(interp.global("fresh_total").as_number(), 4);
    }
    EXPECT_GT(program->atoms.size(), 0u);
    EXPECT_GT(Shape::live_count(), shapes_before);
    // Program names never reach the process-wide prefix.
    js::Atom found;
    EXPECT_FALSE(js::Atom::try_find("fresh_gamma", &found));
    ASSERT_TRUE(program->atoms.try_find("fresh_gamma", &found));
    EXPECT_NE(found.id() & js::Atom::kProgramIdBit, 0u);
  }
  EXPECT_EQ(js::atom_table_size(), atoms_before);
  EXPECT_EQ(Shape::live_count(), shapes_before);
}

TEST(ProgramUniverse, SpaceReadsThePrefixButNeverWritesIt) {
  const js::Atom engine = js::Atom::intern("universe_engine_name");
  const std::size_t atoms_before = js::atom_table_size();
  js::AtomSpace atoms;
  EXPECT_EQ(atoms.intern("universe_engine_name"), engine);  // prefix hit
  const js::Atom local = atoms.intern("universe_program_name");
  EXPECT_EQ(atoms.intern("universe_program_name"), local);
  EXPECT_EQ(atoms.size(), 1u);
  EXPECT_EQ(js::atom_table_size(), atoms_before);
  // A name the prefix learns later does not displace the program's own
  // atom: the space's answer for a text never changes.
  const js::Atom later = js::Atom::intern("universe_program_name");
  EXPECT_NE(later, local);
  EXPECT_EQ(atoms.intern("universe_program_name"), local);
  EXPECT_EQ(engine.id() & js::Atom::kProgramIdBit, 0u);
  EXPECT_NE(local.id() & js::Atom::kProgramIdBit, 0u);
}

// ---------------------------------------------------------------------------
// The builtin realm: built once per process, copied into every interpreter.
// A program that mutates a builtin mutates its own copy, and the names the
// engine spells are prefix atoms whenever the program was parsed.
// ---------------------------------------------------------------------------

constexpr const char* kMutateBuiltins =
    "Math.acc = 1; Math.floor = function (x) { return 42; };"
    "Array.prototype.total = function () { return 7; };"
    "delete Math.PI;"
    "var seen = Math.floor(1.5) + [1].total() + Math.acc;";
constexpr const char* kProbeBuiltins =
    "var probe = [Math.floor(1.5), typeof Math.acc, typeof [].total,"
    " Math.PI > 3, Object.keys(Math).length].join(',');";
constexpr const char* kPristine = "1,undefined,undefined,true,23";

/// One session that mutates the builtins, then one that reads them.
void mutate_then_probe() {
  Session dirty(js::parse(kMutateBuiltins), CeresMode::Dependence);
  dirty.run();
  EXPECT_DOUBLE_EQ(dirty.interp().global("seen").as_number(), 42 + 7 + 1);
  // Adding or deleting a property moved each copy off the frozen tree.
  EXPECT_EQ(dirty.interp().global("Math").as_object()->shape(), nullptr);
  EXPECT_EQ(dirty.interp().array_prototype()->shape(), nullptr);

  Session clean(js::parse(kProbeBuiltins), CeresMode::Uninstrumented);
  clean.run();
  EXPECT_EQ(clean.interp().global("probe").as_string(), kPristine);
  const Shape* math_shape = clean.interp().global("Math").as_object()->shape();
  ASSERT_NE(math_shape, nullptr);
  EXPECT_TRUE(math_shape->frozen());
  EXPECT_TRUE(math_shape->flattened_for_test());  // flattened when frozen
}

TEST(BuiltinRealm, MutatedBuiltinsDoNotReachTheNextSession) {
  for (int round = 0; round < 3; ++round) mutate_then_probe();
}

TEST(BuiltinRealm, ConcurrentSessionsEachMutateTheirOwnCopy) {
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int round = 0; round < 16; ++round) mutate_then_probe();
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(BuiltinRealm, ProgramParsedFirstHoldsOnlyItsOwnNames) {
  // Parsed before any interpreter exists in the process (run this test
  // alone to see it): the engine's names must still be prefix atoms, also
  // the keys the canvas bindings and the event object set.
  const js::Program program = js::parse(
      "var own_total = Math.floor(2.5) + [1, 2].length;"
      "document.getElementById('realm-probe');"
      "var own_ctx = document.createElement('canvas').getContext('2d');"
      "own_ctx.fillStyle = '#102030';"
      "own_ctx.fillRect(0, 0, 2, 2);"
      "own_total += own_ctx.getImageData(0, 0, 1, 1).data.length;"
      "addEventListener('mousedown', function (ev) {"
      "  own_total += ev.x + ev.y + ev.key.length + (ev.type === 'mousedown') +"
      "      (ev.timeStamp >= 0);"
      "});"
      "setTimeout(function () { own_total += 1; }, 1);");
  std::vector<std::string> parsed;
  program->atoms.for_each([&](js::Atom atom) { parsed.push_back(atom.str()); });
  EXPECT_EQ(parsed, (std::vector<std::string>{"own_total", "realm-probe", "own_ctx", "2d",
                                              "#102030", "mousedown", "ev"}));

  VirtualClock clock;
  {
    Interpreter interp(program, clock);
    dom::Page page(interp);
    page.event_loop().push_user_events({dom::UserEvent{2, "mousedown", 3, 4, "k"}});
    interp.run();
    page.event_loop().run(10);
    // 2 + 2, 4 bytes of image data, 3 + 4 + 1 + 1 + 1 from the event, 1
    // from the timer.
    EXPECT_DOUBLE_EQ(interp.global("own_total").as_number(), 19);
  }
  std::vector<std::string> after;
  program->atoms.for_each([&](js::Atom atom) { after.push_back(atom.str()); });
  EXPECT_EQ(after, parsed);
  // The bindings' keys are checked against the engine spellings.
  EXPECT_NO_THROW(js::Atom::engine_name("timeStamp"));
  EXPECT_THROW(js::Atom::engine_name("own_total"), std::logic_error);
}

TEST(BuiltinRealm, ObjectIdsAndKeyOrderFollowTheInstallOrder) {
  VirtualClock clock;
  Interpreter interp(js::parse("var first = {};"
                               "var math_keys = Object.keys(Math).join(',');"
                               "var array_keys = Object.keys(Array.prototype).join(',');"),
                     clock);
  interp.run();
  EXPECT_EQ(interp.object_prototype()->id(), 1u);
  EXPECT_EQ(interp.array_prototype()->id(), 2u);
  EXPECT_EQ(interp.string_prototype()->id(), 3u);
  EXPECT_EQ(interp.function_prototype()->id(), 4u);
  const auto id_of = [&](const char* name) { return interp.global(name).as_object()->id(); };
  EXPECT_EQ(id_of("Math"), 5u);
  EXPECT_EQ(id_of("Array"), 41u);
  EXPECT_EQ(id_of("String"), 55u);
  EXPECT_EQ(id_of("Object"), 57u);
  EXPECT_EQ(id_of("console"), 62u);
  EXPECT_EQ(id_of("JSON"), 64u);
  EXPECT_EQ(id_of("Date"), 72u);
  EXPECT_EQ(id_of("performance"), 74u);
  EXPECT_EQ(id_of("first"), 76u);  // the program's first object
  EXPECT_EQ(interp.global("math_keys").as_string(),
            "PI,E,LN2,LN10,SQRT2,abs,floor,ceil,sqrt,sin,cos,tan,asin,acos,atan,"
            "exp,log,round,atan2,pow,min,max,random");
  EXPECT_EQ(interp.global("array_keys").as_string(),
            "push,pop,shift,indexOf,join,slice,concat,reverse,fill,splice,sort,"
            "forEach,map,filter,reduce,every,some");
  // console.warn and console.error are console.log, in every copy.
  JSObject* console = interp.global("console").as_object();
  EXPECT_EQ(console->own_property(interp.atoms(), "warn")->as_object(),
            console->own_property(interp.atoms(), "log")->as_object());
}

// ---------------------------------------------------------------------------
// Program lifetime. A js::Program is a handle whose copies share one body;
// every interpreter and analyzer keeps a copy, so the caller's handle may go
// before they do. Under ASan each of these reads freed memory if the engine
// borrowed the caller's program instead.
// ---------------------------------------------------------------------------

TEST(ProgramLifetime, SessionOnATemporaryProgramRunsItsFrameGraph) {
  Session session(js::parse("var frames = 0;\n"
                            "function tick() { var o = {n: frames}; frames = o.n + 1;\n"
                            "  if (frames < 4) { requestAnimationFrame(tick); }\n"
                            "  else { console.log('frames ' + frames); } }\n"
                            "requestAnimationFrame(tick);\n"
                            "setTimeout(function () { console.log('timer'); }, 5);\n"),
                  CeresMode::Dependence);
  session.open_page();
  session.enable_frame_graph(nullptr);
  session.run(1000);
  EXPECT_EQ(session.interp().console_output(), "timer\nframes 4\n");
}

TEST(ProgramLifetime, InterpreterRunsAfterItsCallerDropsTheProgram) {
  std::optional<js::Program> program =
      js::parse("var o = {a: 1}; o['b'] = 2; var total = o.a + o.b;");
  VirtualClock clock;
  Interpreter interp(*program, clock);
  // A body that another handle shares is never rewritten in place.
  EXPECT_THROW(js::to_functional(*program), std::logic_error);
  program.reset();
  interp.run();
  EXPECT_DOUBLE_EQ(interp.global("total").as_number(), 3);
}

TEST(ProgramLifetime, AnalyzerReportsAfterItsCallerDropsTheProgram) {
  std::optional<js::Program> program = js::parse(
      "var total = 0, data = [1, 2, 3];\n"
      "for (var i = 0; i < data.length; i++) { total += data[i]; }\n");
  ceres::DependenceAnalyzer::Options options;
  options.focus_loop_id = (*program)->loop_id_at_line(2);
  ceres::DependenceAnalyzer analyzer(*program, options);
  {
    VirtualClock clock;
    Interpreter interp(*program, clock, &analyzer);
    interp.run();
  }
  program.reset();
  const std::string report = analyzer.report();
  EXPECT_NE(report.find("(focused on for at line 2)"), std::string::npos) << report;
  EXPECT_NE(report.find("write to variable total (line 2)"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Atoms under concurrent programs. Eight threads each parse and run a stream
// of programs that spell 8 shared names (half of them already in the
// prefix) and 8 names private to that program, racing each other's
// interns, lookups and program teardown. Runs under TSan in CI.
// ---------------------------------------------------------------------------

TEST(AtomTorture, ConcurrentProgramsInternAndFreeTheirOwnAtoms) {
  constexpr int kThreads = 8;
  constexpr int kIterations = 24;
  constexpr int kSharedNames = 8;
  constexpr int kPrivateNames = 8;

  // Half the shared names are engine-style prefix names, so programs hit
  // both lookup paths (local and prefix).
  for (int k = 0; k < kSharedNames / 2; ++k) {
    js::Atom::intern("torture_shared_" + std::to_string(k));
  }
  const std::size_t baseline = js::atom_table_size();

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int iter = 0; iter < kIterations; ++iter) {
        std::vector<std::string> names;
        for (int k = 0; k < kSharedNames; ++k) {
          names.push_back("torture_shared_" + std::to_string(k));
        }
        for (int k = 0; k < kPrivateNames; ++k) {
          names.push_back("torture_t" + std::to_string(t) + "_i" +
                          std::to_string(iter) + "_" + std::to_string(k));
        }
        std::string source = "var o = {};";
        for (const std::string& name : names) {
          source += "o." + name + " = 1; o['" + name + "'] += 1;";
        }
        const js::Program program = js::parse(source);
        VirtualClock clock;
        Interpreter interp(program, clock);
        interp.run();

        JSObject* o = interp.global("o").as_object();
        ASSERT_EQ(o->key_order().size(), names.size());
        for (std::size_t k = 0; k < names.size(); ++k) {
          // Identity within the program: the lexer's atom, the computed
          // key's atom and a fresh intern are one atom.
          const js::Atom atom = program->atoms.intern(names[k]);
          EXPECT_EQ(o->key_order()[k], atom);
          js::Atom found;
          ASSERT_TRUE(program->atoms.try_find(names[k], &found));
          EXPECT_EQ(found, atom);
          const Value* value = o->own_property(program->atoms, names[k]);
          ASSERT_NE(value, nullptr);
          EXPECT_DOUBLE_EQ(value->as_number(), 2);
        }
        js::Atom missing;
        EXPECT_FALSE(program->atoms.try_find(
            "torture_never_" + std::to_string(t) + "_" + std::to_string(iter),
            &missing));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every program is gone, and none of them wrote the prefix.
  EXPECT_LE(js::atom_table_size(), baseline);
}

// ---------------------------------------------------------------------------
// Argument-stack re-entrancy.
// ---------------------------------------------------------------------------

Value run_and_get(Interpreter& interp, const char* name) {
  interp.run();
  return interp.global(name);
}

TEST(ArgStack, NestedCallsInArgumentPosition) {
  const js::Program program = js::parse(
      "function add4(a, b, c, d) { return a + b * 10 + c * 100 + d * 1000; }\n"
      "function inc(x) { return x + 1; }\n"
      "function fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n"
      "var result = add4(inc(0), add4(inc(1), 0, 0, fib(5)), inc(2), fib(6));\n");
  VirtualClock clock;
  Interpreter interp(program, clock);
  const Value result = run_and_get(interp, "result");
  // add4(1, 2 + 5000, 3, 8) = 1 + 50020 + 300 + 8000
  EXPECT_DOUBLE_EQ(result.as_number(), 1 + 5002 * 10 + 3 * 100 + 8 * 1000);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(ArgStack, DeepRecursionWithWideFrames) {
  VirtualClock clock;
  Interpreter interp(js::parse("function deep(n, a, b, c, d, e, f, g) {\n"
                               "  if (n === 0) { return a + b + c + d + e + f + g; }\n"
                               "  return deep(n - 1, a + 1, b, c, d, e, f, g);\n"
                               "}\n"
                               "var result = deep(100, 0, 1, 2, 3, 4, 5, 6);\n"), clock);
  const Value result = run_and_get(interp, "result");
  EXPECT_DOUBLE_EQ(result.as_number(), 100 + 1 + 2 + 3 + 4 + 5 + 6);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(ArgStack, ExceptionUnwindingMidArgumentEvaluation) {
  const js::Program program = js::parse(
      "function boom() { throw {name: 'E', message: 'mid-args'}; }\n"
      "function id(x) { return x; }\n"
      "function f3(a, b, c) { return a + b + c; }\n"
      "var caught = 0;\n"
      "var after = 0;\n"
      "function tryIt(depth) {\n"
      "  if (depth > 0) { return tryIt(depth - 1) + 1; }\n"
      "  try {\n"
      "    f3(id(1), f3(id(2), boom(), id(3)), id(4));\n"
      "  } catch (e) {\n"
      "    caught = caught + 1;\n"
      "  }\n"
      "  return 0;\n"
      "}\n"
      "tryIt(5);\n"
      "tryIt(0);\n"
      "after = f3(10, id(20), 30);\n"  // the stack must still be balanced
      "var result = caught * 1000 + after;\n");
  VirtualClock clock;
  Interpreter interp(program, clock);
  const Value result = run_and_get(interp, "result");
  EXPECT_DOUBLE_EQ(result.as_number(), 2 * 1000 + 60);
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

TEST(ArgStack, FunctionCallForwardsArgumentTail) {
  const js::Program program = js::parse(
      "function weigh(a, b, c) { return a + b * 10 + c * 100; }\n"
      "var result = weigh.call(null, 1, 2, 3) + weigh.apply(null, [4, 5, 6]);\n");
  VirtualClock clock;
  Interpreter interp(program, clock);
  const Value result = run_and_get(interp, "result");
  EXPECT_DOUBLE_EQ(result.as_number(), (1 + 20 + 300) + (4 + 50 + 600));
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Zero-allocation steady state: after warmup, a call-dominated loop must
// perform no heap allocation at all — activations come from the free list,
// argument frames from the ArgStack, and ticks batch into a counter.
// ---------------------------------------------------------------------------

TEST(ArgStackAllocation, SteadyStateCallsAllocateNothing) {
  const js::Program program = js::parse(
      "function add3(a, b, c) { return a + b + c; }\n"
      "function driver(n) {\n"
      "  var t = 0;\n"
      "  for (var i = 0; i < n; i++) { t += add3(i, i + 1, add3(i, 1, 2)); }\n"
      "  return t;\n"
      "}\n"
      "var warm = driver(64);\n");
  VirtualClock clock;
  Interpreter interp(program, clock);
  interp.run();  // warms pools, segment storage, caches
  interp.call(interp.global("driver"), Value::undefined(), {Value::number(32)});

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const Value result =
      interp.call(interp.global("driver"), Value::undefined(), {Value::number(512)});
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_TRUE(result.is_number());
  // sum over i < 512 of add3(i, i+1, i+3) = 3i + 4.
  EXPECT_DOUBLE_EQ(result.as_number(), 3.0 * (511.0 * 512 / 2) + 4.0 * 512);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "steady-state calls must not touch the heap";
}

TEST(ArgStackAllocation, ApplyForwardsThroughArgStackWithoutAllocating) {
  // Regression: apply() used to snapshot the argument array into a
  // std::vector per call — one heap allocation on every invocation. It now
  // forwards through the same reused ArgStack frame as a direct call, so an
  // apply-dominated loop must be allocation-free too. The argument array is
  // hoisted and mutated in place; writes to existing elements reuse storage.
  VirtualClock clock;
  Interpreter interp(js::parse("function add3(a, b, c) { return a + b + c; }\n"
                               "var arr = [0, 0, 0];\n"
                               "function driver(n) {\n"
                               "  var t = 0;\n"
                               "  for (var i = 0; i < n; i++) {\n"
                               "    arr[0] = i; arr[1] = i + 1; arr[2] = 2;\n"
                               "    t += add3.apply(null, arr);\n"
                               "  }\n"
                               "  return t;\n"
                               "}\n"
                               "var warm = driver(64);\n"), clock);
  interp.run();
  interp.call(interp.global("driver"), Value::undefined(), {Value::number(32)});

  g_alloc_count.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const Value result =
      interp.call(interp.global("driver"), Value::undefined(), {Value::number(512)});
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_TRUE(result.is_number());
  // sum over i < 512 of (i + (i + 1) + 2) = 2i + 3.
  EXPECT_DOUBLE_EQ(result.as_number(), 2.0 * (511.0 * 512 / 2) + 3.0 * 512);
  EXPECT_EQ(g_alloc_count.load(std::memory_order_relaxed), 0)
      << "apply() must reuse the ArgStack frame, not allocate a snapshot";
  EXPECT_EQ(interp.debug_arg_stack_in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Mode-3 index-atom gate: element accesses in instrumented runs must emit
// the same canonical key spellings as interning did, via the cache.
// ---------------------------------------------------------------------------

struct RecordingHooks final : ExecutionHooks {
  struct Prop {
    bool write = false;
    std::uint64_t obj_id = 0;
    std::string key;
  };
  std::vector<Prop> props;
  [[nodiscard]] bool wants_memory_events() const override { return true; }
  void on_memory_batch(const MemoryEvent* events, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      const MemoryEvent& e = events[i];
      const bool write = e.kind == MemoryEvent::Kind::PropWrite;
      if (write || e.kind == MemoryEvent::Kind::PropRead) {
        props.push_back({write, e.id, e.name.str()});
      }
    }
  }
};

TEST(IndexAtomGate, ArrayLoopEventsCarryCanonicalIndexKeys) {
  VirtualClock clock;
  RecordingHooks hooks;
  Interpreter interp(js::parse("var a = [5, 6, 7];\n"
                               "var s = 0;\n"
                               "for (var i = 0; i < 3; i++) { s += a[i]; a[i] = s; }\n"
                               "a.push(9);\n"), clock, &hooks);
  interp.run();
  // Literal writes 0,1,2; per iteration read i + write i; then the `push`
  // method lookup (a property read) and the element write it performs.
  std::vector<std::string> expected_keys = {"0", "1", "2", "0", "0",    "1",
                                            "1", "2", "2", "push", "3"};
  std::vector<bool> expected_writes = {true,  true, true,  false, true, false,
                                       true,  false, true, false, true};
  ASSERT_EQ(hooks.props.size(), expected_keys.size());
  for (std::size_t i = 0; i < expected_keys.size(); ++i) {
    EXPECT_EQ(hooks.props[i].key, expected_keys[i]) << "event " << i;
    EXPECT_EQ(hooks.props[i].write, expected_writes[i]) << "event " << i;
    EXPECT_EQ(hooks.props[i].obj_id, hooks.props[0].obj_id);
  }
}

}  // namespace
}  // namespace jsceres::interp

// ---------------------------------------------------------------------------
// Counting allocator shim (whole-binary): pass-through malloc that bumps a
// counter while a test has switched counting on.
// ---------------------------------------------------------------------------

namespace {
void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
