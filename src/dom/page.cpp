#include "dom/page.h"

#include <cmath>

namespace jsceres::dom {

using interp::Args;
using interp::HostAccess;
using interp::Interpreter;
using interp::JSObject;
using interp::Value;

namespace {

constexpr int kViewportWidth = 1024;
constexpr int kViewportHeight = 768;
/// Simulated network: latency + per-KB transfer time for loadResource.
constexpr std::int64_t kNetLatencyMs = 40;
constexpr double kNetMsPerKb = 0.6;
/// CPU ticks charged per DOM mutation (appendChild etc.), modelling
/// style/layout invalidation work.
constexpr std::int64_t kDomMutationTicks = 40;

/// Marker host payload for singleton substrate objects (document, window,
/// localStorage) so that property touches classify correctly.
struct MarkerHost final : interp::HostData {
  explicit MarkerHost(HostAccess access) : access_(access) {}
  [[nodiscard]] HostAccess category() const override { return access_; }
  HostAccess access_;
};

/// Host payload linking a JS wrapper back to its DOM node.
struct NodeHost final : interp::HostData {
  explicit NodeHost(std::shared_ptr<DomNode> node) : node(std::move(node)) {}
  [[nodiscard]] HostAccess category() const override { return HostAccess::Dom; }
  std::shared_ptr<DomNode> node;
};

/// Host payload for 2D context wrappers.
struct ContextHost final : interp::HostData {
  explicit ContextHost(std::shared_ptr<CanvasContext> ctx) : ctx(std::move(ctx)) {}
  [[nodiscard]] HostAccess category() const override { return HostAccess::Canvas; }
  std::shared_ptr<CanvasContext> ctx;
};

std::shared_ptr<DomNode> node_of(Interpreter& interp, const Value& value) {
  if (value.is_object()) {
    if (auto* host = value.as_object()->host_as<NodeHost>()) return host->node;
  }
  interp.throw_error("TypeError", "expected a DOM element");
}

std::shared_ptr<CanvasContext> ctx_of(Interpreter& interp, const Value& value) {
  if (value.is_object()) {
    if (auto* host = value.as_object()->host_as<ContextHost>()) return host->ctx;
  }
  interp.throw_error("TypeError", "expected a canvas 2D context");
}

void define(Interpreter& interp, JSObject* target, const std::string& name,
            interp::NativeFn fn) {
  target->set_property(js::Atom::engine_name(name),
                       Value::object(interp.make_native_function(name, std::move(fn))));
}

double prop_number(Interpreter& interp, JSObject* obj, const std::string& key,
                   double fallback) {
  const Value* v = obj->own_property(js::Atom::engine_name(key));
  return v == nullptr ? fallback : interp.to_number(*v);
}

/// Pull the current fillStyle/strokeStyle off the wrapper into the context.
void sync_styles(Interpreter& interp, const Value& self,
                 const std::shared_ptr<CanvasContext>& ctx) {
  JSObject* obj = self.as_object();
  if (const Value* fill = obj->own_property(js::Atom::engine_name("fillStyle"))) {
    ctx->set_fill_color(parse_color(interp.to_string_value(*fill)));
  }
  if (const Value* stroke = obj->own_property(js::Atom::engine_name("strokeStyle"))) {
    ctx->set_stroke_color(parse_color(interp.to_string_value(*stroke)));
  }
}

/// Forward accumulated raster cost to the interpreter clock.
void settle(Interpreter& interp, const std::shared_ptr<CanvasContext>& ctx) {
  const CanvasContext::Cost cost = ctx->drain_cost();
  if (cost.cpu_ticks > 0) interp.charge(cost.cpu_ticks);
  if (cost.block_ns > 0) interp.block(cost.block_ns);
}

}  // namespace

Page::Page(Interpreter& interp) : interp_(&interp), event_loop_(interp) {
  install_document();
  install_window();
  install_storage();
}

Value Page::wrap(const std::shared_ptr<DomNode>& node) {
  const auto it = wrappers_.find(node.get());
  if (it != wrappers_.end()) return Value::object(it->second);

  JSObject* obj = interp_->make_object();
  obj->set_host(std::make_unique<NodeHost>(node));
  obj->set_property(js::Atom::engine_name("tagName"), Value::str(node->tag()));
  obj->set_property(js::Atom::engine_name("id"), Value::str(node->id()));

  Page* page = this;
  define(*interp_, obj, "appendChild",
         [page](Interpreter& in, const Value& self, const Args& args) {
           const auto parent = node_of(in, self);
           const auto child = node_of(in, args.empty() ? Value::undefined() : args[0]);
           parent->append_child(child);
           page->document().register_id(child);
           in.charge(kDomMutationTicks);
           in.note_host_access(HostAccess::Dom, "appendChild");
           return args[0];
         });
  define(*interp_, obj, "removeChild",
         [](Interpreter& in, const Value& self, const Args& args) {
           const auto parent = node_of(in, self);
           const auto child = node_of(in, args.empty() ? Value::undefined() : args[0]);
           parent->remove_child(child.get());
           in.charge(kDomMutationTicks);
           in.note_host_access(HostAccess::Dom, "removeChild");
           return args[0];
         });
  define(*interp_, obj, "setAttribute",
         [page](Interpreter& in, const Value& self, const Args& args) {
           const auto node = node_of(in, self);
           const std::string name =
               in.to_string_value(args.empty() ? Value::undefined() : args[0]);
           const std::string value =
               in.to_string_value(args.size() > 1 ? args[1] : Value::undefined());
           if (name == "id") {
             node->set_id(value);
             page->document().register_id(node);
           }
           node->set_attribute(name, value);
           in.charge(kDomMutationTicks / 4);
           in.note_host_access(HostAccess::Dom, "setAttribute");
           return Value::undefined();
         });
  define(*interp_, obj, "getAttribute",
         [](Interpreter& in, const Value& self, const Args& args) {
           const auto node = node_of(in, self);
           in.note_host_access(HostAccess::Dom, "getAttribute");
           return Value::str(node->attribute(
               in.to_string_value(args.empty() ? Value::undefined() : args[0])));
         });
  define(*interp_, obj, "getContext",
         [page](Interpreter& in, const Value& self, const Args&) {
           const auto node = node_of(in, self);
           auto& ctx = page->contexts_[node.get()];
           if (ctx == nullptr) {
             JSObject* wrapper = self.as_object();
             const int w = int(prop_number(in, wrapper, "width", 300));
             const int h = int(prop_number(in, wrapper, "height", 150));
             ctx = std::make_shared<CanvasContext>(w, h);
           }
           // Context wrapper (one per getContext call is fine; state lives in
           // the shared CanvasContext).
           JSObject* ctx_obj = in.make_object();
           ctx_obj->set_host(std::make_unique<ContextHost>(ctx));
           ctx_obj->set_property(js::Atom::engine_name("canvas"), self);

           define(in, ctx_obj, "fillRect",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    const auto c = ctx_of(i2, s2);
                    sync_styles(i2, s2, c);
                    c->fill_rect(int(i2.to_number(a2[0])), int(i2.to_number(a2[1])),
                                 int(i2.to_number(a2[2])), int(i2.to_number(a2[3])));
                    settle(i2, c);
                    i2.note_host_access(HostAccess::Canvas, "fillRect");
                    return Value::undefined();
                  });
           define(in, ctx_obj, "clearRect",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    const auto c = ctx_of(i2, s2);
                    c->clear_rect(int(i2.to_number(a2[0])), int(i2.to_number(a2[1])),
                                  int(i2.to_number(a2[2])), int(i2.to_number(a2[3])));
                    settle(i2, c);
                    i2.note_host_access(HostAccess::Canvas, "clearRect");
                    return Value::undefined();
                  });
           define(in, ctx_obj, "beginPath",
                  [](Interpreter& i2, const Value& s2, const Args&) {
                    ctx_of(i2, s2)->begin_path();
                    return Value::undefined();
                  });
           define(in, ctx_obj, "moveTo",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    ctx_of(i2, s2)->move_to(i2.to_number(a2[0]), i2.to_number(a2[1]));
                    return Value::undefined();
                  });
           define(in, ctx_obj, "lineTo",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    ctx_of(i2, s2)->line_to(i2.to_number(a2[0]), i2.to_number(a2[1]));
                    return Value::undefined();
                  });
           define(in, ctx_obj, "arc",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    ctx_of(i2, s2)->arc(i2.to_number(a2[0]), i2.to_number(a2[1]),
                                        i2.to_number(a2[2]));
                    return Value::undefined();
                  });
           define(in, ctx_obj, "stroke",
                  [](Interpreter& i2, const Value& s2, const Args&) {
                    const auto c = ctx_of(i2, s2);
                    sync_styles(i2, s2, c);
                    c->stroke_path();
                    settle(i2, c);
                    i2.note_host_access(HostAccess::Canvas, "stroke");
                    return Value::undefined();
                  });
           define(in, ctx_obj, "fill",
                  [](Interpreter& i2, const Value& s2, const Args&) {
                    const auto c = ctx_of(i2, s2);
                    sync_styles(i2, s2, c);
                    c->fill_path();
                    settle(i2, c);
                    i2.note_host_access(HostAccess::Canvas, "fill");
                    return Value::undefined();
                  });
           define(in, ctx_obj, "getImageData",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    const auto c = ctx_of(i2, s2);
                    const int x = int(i2.to_number(a2[0]));
                    const int y = int(i2.to_number(a2[1]));
                    const int w = int(i2.to_number(a2[2]));
                    const int h = int(i2.to_number(a2[3]));
                    const std::vector<std::uint8_t> bytes = c->get_image_data(x, y, w, h);
                    JSObject* data = i2.make_array(bytes.size());
                    for (const std::uint8_t b : bytes) {
                      data->elements().push_back(Value::number(b));
                    }
                    JSObject* img = i2.make_object();
                    img->set_property(js::Atom::engine_name("width"), Value::number(w));
                    img->set_property(js::Atom::engine_name("height"), Value::number(h));
                    img->set_property(js::Atom::engine_name("data"), Value::object(data));
                    settle(i2, c);
                    i2.note_host_access(HostAccess::Canvas, "getImageData");
                    return Value::object(img);
                  });
           define(in, ctx_obj, "putImageData",
                  [](Interpreter& i2, const Value& s2, const Args& a2) {
                    const auto c = ctx_of(i2, s2);
                    if (a2.empty() || !a2[0].is_object()) {
                      i2.throw_error("TypeError", "putImageData expects ImageData");
                    }
                    JSObject* img = a2[0].as_object();
                    const int w = int(prop_number(i2, img, "width", 0));
                    const int h = int(prop_number(i2, img, "height", 0));
                    const Value* data = img->own_property(js::Atom::engine_name("data"));
                    if (data == nullptr || !data->is_object()) {
                      i2.throw_error("TypeError", "ImageData has no data");
                    }
                    const auto& elems = data->as_object()->elements();
                    std::vector<std::uint8_t> bytes(elems.size());
                    for (std::size_t i = 0; i < elems.size(); ++i) {
                      const double v = elems[i].is_number() ? elems[i].as_number() : 0;
                      bytes[i] = std::uint8_t(std::clamp(v, 0.0, 255.0));
                    }
                    c->put_image_data(bytes, int(i2.to_number(a2[1])),
                                      int(i2.to_number(a2[2])), w, h);
                    settle(i2, c);
                    i2.note_host_access(HostAccess::Canvas, "putImageData");
                    return Value::undefined();
                  });
           in.note_host_access(HostAccess::Canvas, "getContext");
           return Value::object(ctx_obj);
         });

  wrappers_[node.get()] = obj;
  return Value::object(obj);
}

Value Page::add_canvas(const std::string& id, int width, int height) {
  auto node = document_.create("canvas");
  node->set_id(id);
  document_.register_id(node);
  document_.body()->append_child(node);
  const Value wrapper = wrap(node);
  wrapper.as_object()->set_property(js::Atom::engine_name("width"), Value::number(width));
  wrapper.as_object()->set_property(js::Atom::engine_name("height"), Value::number(height));
  return wrapper;
}

void Page::install_document() {
  JSObject* doc = interp_->make_object();
  doc->set_host(std::make_unique<MarkerHost>(HostAccess::Dom));
  Page* page = this;
  define(*interp_, doc, "getElementById",
         [page](Interpreter& in, const Value&, const Args& args) {
           const std::string id =
               in.to_string_value(args.empty() ? Value::undefined() : args[0]);
           in.note_host_access(HostAccess::Dom, "getElementById");
           const auto node = page->document_.by_id(id);
           if (node == nullptr) return Value::null();
           return page->wrap(node);
         });
  define(*interp_, doc, "createElement",
         [page](Interpreter& in, const Value&, const Args& args) {
           const std::string tag =
               in.to_string_value(args.empty() ? Value::undefined() : args[0]);
           in.note_host_access(HostAccess::Dom, "createElement");
           in.charge(kDomMutationTicks / 4);
           return page->wrap(page->document_.create(tag));
         });
  doc->set_property(js::Atom::engine_name("body"), wrap(document_.body()));
  interp_->define_global("document", Value::object(doc));
}

void Page::install_window() {
  JSObject* window = interp_->make_object();
  window->set_property(js::Atom::engine_name("innerWidth"), Value::number(kViewportWidth));
  window->set_property(js::Atom::engine_name("innerHeight"), Value::number(kViewportHeight));
  window->set_property(js::Atom::engine_name("devicePixelRatio"), Value::number(1));

  Page* page = this;
  const auto set_timeout = [page](Interpreter& in, const Value&,
                                  const Args& args) {
    const Value cb = args.empty() ? Value::undefined() : args[0];
    const auto delay =
        std::int64_t(args.size() > 1 ? in.to_number(args[1]) : 0);
    return Value::number(double(page->event_loop_.set_timeout(cb, delay)));
  };
  const auto clear_timeout = [page](Interpreter& in, const Value&,
                                    const Args& args) {
    page->event_loop_.clear_timeout(
        std::uint64_t(args.empty() ? 0 : in.to_number(args[0])));
    return Value::undefined();
  };
  const auto raf = [page](Interpreter&, const Value&, const Args& args) {
    const Value cb = args.empty() ? Value::undefined() : args[0];
    return Value::number(double(page->event_loop_.request_animation_frame(cb)));
  };
  const auto add_listener = [page](Interpreter& in, const Value&,
                                   const Args& args) {
    const std::string type =
        in.to_string_value(args.empty() ? Value::undefined() : args[0]);
    page->event_loop_.add_listener(type, args.size() > 1 ? args[1] : Value::undefined());
    in.note_host_access(HostAccess::Dom, "addEventListener");
    return Value::undefined();
  };
  // Simulated resource fetch: loadResource(name, size_kb, callback). The
  // callback fires after latency + transfer delay; no CPU is consumed
  // (paper Fig. 2: "resource loading" is the top bottleneck, and it is
  // wall-clock, not compute).
  const auto load_resource = [page](Interpreter& in, const Value&,
                                    const Args& args) {
    const double kb = args.size() > 1 ? in.to_number(args[1]) : 0;
    const Value cb = args.size() > 2 ? args[2] : Value::undefined();
    const auto delay_ms = std::int64_t(double(kNetLatencyMs) + kb * kNetMsPerKb);
    in.note_host_access(HostAccess::Network, "loadResource");
    if (cb.is_object()) page->event_loop_.set_timeout(cb, delay_ms);
    return Value::undefined();
  };

  define(*interp_, window, "setTimeout", set_timeout);
  define(*interp_, window, "clearTimeout", clear_timeout);
  define(*interp_, window, "requestAnimationFrame", raf);
  define(*interp_, window, "addEventListener", add_listener);
  define(*interp_, window, "loadResource", load_resource);
  interp_->define_global("window", Value::object(window));

  // The same entry points exist as bare globals, as in a browser.
  for (const char* name : {"setTimeout", "clearTimeout", "requestAnimationFrame",
                           "addEventListener", "loadResource"}) {
    interp_->define_global(name, *window->own_property(js::Atom::engine_name(name)));
  }
}

void Page::install_storage() {
  JSObject* storage = interp_->make_object();
  storage->set_host(std::make_unique<MarkerHost>(HostAccess::Storage));
  Page* page = this;
  define(*interp_, storage, "setItem",
         [page](Interpreter& in, const Value&, const Args& args) {
           const std::string key =
               in.to_string_value(args.empty() ? Value::undefined() : args[0]);
           page->storage_[key] =
               in.to_string_value(args.size() > 1 ? args[1] : Value::undefined());
           in.note_host_access(HostAccess::Storage, "setItem");
           in.charge(20);
           return Value::undefined();
         });
  define(*interp_, storage, "getItem",
         [page](Interpreter& in, const Value&, const Args& args) {
           const std::string key =
               in.to_string_value(args.empty() ? Value::undefined() : args[0]);
           in.note_host_access(HostAccess::Storage, "getItem");
           const auto it = page->storage_.find(key);
           if (it == page->storage_.end()) return Value::null();
           return Value::str(it->second);
         });
  interp_->define_global("localStorage", Value::object(storage));
}

}  // namespace jsceres::dom
