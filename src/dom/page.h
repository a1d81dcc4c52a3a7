#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "dom/canvas.h"
#include "dom/document.h"
#include "dom/event_loop.h"
#include "interp/interpreter.h"

namespace jsceres::dom {

/// The browser-page substrate: wires `document`, `window`, canvas 2D
/// contexts, timers, localStorage and a simulated resource loader into an
/// interpreter instance.
///
/// Design notes / simplifications (vs. a real browser):
///  - Element wrappers expose explicit methods (appendChild, setAttribute,
///    getContext, ...). Scalar DOM state written through plain JS property
///    assignment (e.g. `el.textContent = ...`) stays on the wrapper; the
///    instrumentation still sees it as a DOM access via the host-object
///    category hook, which is all the study measures.
///  - Layout is modelled as a per-mutation CPU charge rather than an actual
///    layout pass.
///  - Resource loading advances wall-clock only: the network is not the CPU.
///
/// The viewport, network model and per-mutation charge are fixed constants
/// in page.cpp: the virtual clock's cpu_ns and wall_ns depend on them.
class Page {
 public:
  explicit Page(interp::Interpreter& interp);

  [[nodiscard]] Document& document() { return document_; }
  [[nodiscard]] EventLoop& event_loop() { return event_loop_; }
  [[nodiscard]] interp::Interpreter& interp() { return *interp_; }

  /// The JS wrapper for a host node (cached so identity is stable).
  interp::Value wrap(const std::shared_ptr<DomNode>& node);

  /// Canvas context attached to a canvas element, if any.
  [[nodiscard]] std::shared_ptr<CanvasContext> context_of(const DomNode* node) const {
    const auto it = contexts_.find(node);
    return it == contexts_.end() ? nullptr : it->second;
  }

  /// Canvas context of the element with `id`, if the page has one and the
  /// app already called getContext on it. Used to wire the event loop's
  /// frame-graph upload stage to the workload's render surface.
  [[nodiscard]] std::shared_ptr<CanvasContext> canvas_context(const std::string& id) const {
    const auto node = document_.by_id(id);
    return node == nullptr ? nullptr : context_of(node.get());
  }

  /// Convenience used by workloads and tests: a canvas element with the
  /// given id appended to <body>.
  interp::Value add_canvas(const std::string& id, int width, int height);

 private:
  void install_document();
  void install_window();
  void install_storage();

  interp::Interpreter* interp_;
  Document document_;
  EventLoop event_loop_;
  std::unordered_map<const DomNode*, interp::JSObject*> wrappers_;
  std::unordered_map<const DomNode*, std::shared_ptr<CanvasContext>> contexts_;
  std::unordered_map<std::string, std::string> storage_;
};

}  // namespace jsceres::dom
