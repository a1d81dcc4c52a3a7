#pragma once

#include <cstdint>
#include <vector>

#include "js/ast.h"

namespace jsceres::interp {

/// Register bytecode: what the VM (Interpreter::run_code) runs. A program is
/// lowered once, on first use (bytecode_of), into one flat instruction
/// array shared by every interpreter of that program; see
/// src/interp/README.md for the instruction set and the tick rule.
enum class Op : std::uint8_t {
  // Constants.
  LoadNum, LoadStr, LoadBool, LoadNull, LoadThis,
  // Variables: name at `p` (const js::Atom*), event line at `line`.
  // Local: hops 0, slot x. Up: hops c, slot x. Global: ref id x.
  GetLocal, GetUp, GetGlobal, SetLocal, SetUp, SetGlobal,
  UpdateVar,   // ++/-- on a binding: a = result, p = Ident, c = flags
  TypeofVar,   // a = "undefined" and jump x when the Ident at p is unbound
  // Properties: p = js::Member, base b, key c.
  GetNamed, GetMethod, GetElem, GetElemMethod, ElemKey,
  SetNamed, SetElem, UpdateNamed, UpdateElem, DeleteProp,
  // Operators: a = b op c.
  Add, Sub, Mul, Div, Lt, Gt, Le, Ge, StrictEq, StrictNe, Binary,
  Neg, Plus, Not, BitNot, Typeof,
  // Control.
  Jump, JumpIfFalse, JumpIfTrue, JumpIfNotLt, JumpIfNotGt, JumpIfNotLe, JumpIfNotGe,
  Tick, Leave, Exit, Return, Throw, Try,
  // Objects, functions, calls.
  NewArray, ArrayPush, NewObject, InitProp, Closure,
  Args, Call, NewThis, Construct,
  // Loops: loop id x, kind c, line.
  LoopEnter, LoopIter, LoopExit, ForInStart, ForInNext, ForInEnd,
  Count_
};

/// One instruction: 24 bytes. `ticks` unit ticks are charged on entry,
/// before the instruction does anything (see the tick rule in README.md).
struct Instr {
  Op op = Op::Tick;
  std::uint8_t ticks = 0;
  std::uint16_t a = 0;
  std::uint16_t b = 0;
  std::uint16_t c = 0;
  std::uint32_t x = 0;
  std::int32_t line = 0;
  union {
    const void* p = nullptr;
    double num;
  };
};
static_assert(sizeof(Instr) == 24, "an instruction is three words");

/// Ranges of one try statement, all pcs into Bytecode::code. The try body
/// follows the Try instruction; it, the catch and the finally bodies each end
/// with Exit; `ret` is the statement's return path (the loop exits between it
/// and the enclosing try or function, then Return); `cont` follows it.
struct TryInfo {
  const js::TryCatch* node = nullptr;
  std::uint32_t catch_pc = 0;    // 0: no catch clause
  std::uint32_t finally_pc = 0;  // 0: no finally clause
  std::uint32_t ret = 0;
  std::uint32_t cont = 0;
};

/// One function body (or the top-level script): its first pc, one past its
/// last, and the register window it needs. Register 0 holds the return
/// value.
struct CodeRange {
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
  std::uint32_t registers = 1;
};

struct Bytecode {
  std::vector<Instr> code;
  std::vector<TryInfo> tries;
  CodeRange script;
  std::vector<CodeRange> functions;  // by js::FunctionNode::code_index
};

/// The program's bytecode, compiled on the first call for its body and
/// kept (and freed) with it; thread-safe. Compilation charges no ledger.
const Bytecode& bytecode_of(const js::ProgramBody& body);

/// Resolve a program's scopes into its AST and lower it
/// (interp/compiler.cpp). Throws EngineError when a body needs more
/// registers than an instruction can name. The caller must be the body's
/// only user: bytecode_of, or a test or benchmark holding the only handle.
Bytecode compile(const js::ProgramBody& body);

}  // namespace jsceres::interp
