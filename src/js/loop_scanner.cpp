#include "js/loop_scanner.h"

namespace jsceres::js {

namespace {

/// Depth-first AST walker feeding both the census and the per-loop scanner.
class Scanner {
 public:
  explicit Scanner(const Program& program) : program_(program) {}

  void run() {
    for (const Stmt* stmt : program_->statements) walk(*stmt);
  }

  StyleCensus census;
  std::map<int, LoopStaticInfo> loops;

 private:
  void enter_loop(int loop_id) {
    LoopStaticInfo& info = loops[loop_id];
    info.loop_id = loop_id;
    for (const int open : loop_stack_) ++loops[open].nested_loops;
    loop_stack_.push_back(loop_id);
  }
  void exit_loop() { loop_stack_.pop_back(); }

  void note_branch() {
    for (const int open : loop_stack_) ++loops[open].branch_sites;
  }
  void note_call() {
    for (const int open : loop_stack_) ++loops[open].call_sites;
  }
  void note_statement() {
    for (const int open : loop_stack_) ++loops[open].body_statements;
  }

  void walk(const Node& node) {
    if (is_statement(node.kind)) note_statement();
    switch (node.kind) {
      case NodeKind::FunctionDecl:
        ++census.function_decls;
        break;
      case NodeKind::If:
      case NodeKind::Conditional:
      case NodeKind::Logical:
        note_branch();
        break;
      case NodeKind::Call: {
        const auto& call = static_cast<const Call&>(node);
        note_call();
        if (call.callee->kind == NodeKind::Member) {
          const auto& member = static_cast<const Member&>(*call.callee);
          if (!member.computed && is_functional_operator(member.property)) {
            ++census.functional_op_calls;
          }
        }
        break;
      }
      case NodeKind::New:
        note_call();
        break;
      case NodeKind::For: {
        const auto& loop = static_cast<const For&>(node);
        ++census.for_loops;
        if (loop.init) walk(*loop.init);
        enter_loop(loop.loop_id);
        // A classic counted loop has the shape `i <comparison> <bound>`;
        // anything else counts as a data-dependent trip count.
        loops[loop.loop_id].condition_data_dependent =
            !loop.condition || loop.condition->kind != NodeKind::Binary;
        if (loop.condition) walk(*loop.condition);
        if (loop.update) walk(*loop.update);
        walk(*loop.body);
        exit_loop();
        return;
      }
      case NodeKind::ForIn: {
        const auto& loop = static_cast<const ForIn&>(node);
        ++census.for_in_loops;
        walk(*loop.object);
        enter_loop(loop.loop_id);
        walk(*loop.body);
        exit_loop();
        return;
      }
      case NodeKind::While:
      case NodeKind::DoWhile: {
        const int loop_id = node.kind == NodeKind::While
                                ? static_cast<const While&>(node).loop_id
                                : static_cast<const DoWhile&>(node).loop_id;
        ++(node.kind == NodeKind::While ? census.while_loops : census.do_while_loops);
        enter_loop(loop_id);
        loops[loop_id].condition_data_dependent = true;
        for_each_child(node, [this](const Node& child) { walk(child); });
        exit_loop();
        return;
      }
      default:
        break;
    }
    for_each_child(node, [this](const Node& child) { walk(child); });
  }

  const Program& program_;
  std::vector<int> loop_stack_;
};

}  // namespace

bool is_functional_operator(const std::string& name) {
  return name == "map" || name == "forEach" || name == "filter" ||
         name == "reduce" || name == "every" || name == "some";
}

StyleCensus census(const Program& program) {
  Scanner scanner(program);
  scanner.run();
  return scanner.census;
}

std::map<int, LoopStaticInfo> scan_loops(const Program& program) {
  Scanner scanner(program);
  scanner.run();
  // Make sure every registered loop has an entry even if its body is empty.
  for (const auto& site : program->loops) {
    auto& info = scanner.loops[site.loop_id];
    info.loop_id = site.loop_id;
  }
  return scanner.loops;
}

}  // namespace jsceres::js
