#include <algorithm>
#include <stdexcept>

#include "interp/bytecode.h"
#include "interp/shape.h"
#include "js/ast.h"

namespace jsceres::js {

namespace {

/// First arena chunk, in proportion to the source: the generated corpus
/// and the study apps take 8-10 arena bytes per source byte, so one chunk
/// usually holds the whole tree and a small program pins a small block.
/// Later chunks grow geometrically.
std::size_t first_chunk_bytes(std::size_t source_bytes) {
  return std::clamp<std::size_t>(source_bytes * 12, 256, std::size_t(1) << 20);
}

}  // namespace

// Out of line: the shape tree's type is complete only here.
ProgramBody::ProgramBody(std::size_t source_bytes)
    : arena(first_chunk_bytes(source_bytes)),
      shape_root(interp::Shape::make_root()) {}
ProgramBody::~ProgramBody() { delete bytecode.load(); }

Program::Program() : body_(std::make_shared<ProgramBody>()) {}

Program::Program(std::size_t source_bytes)
    : body_(std::make_shared<ProgramBody>(source_bytes)) {}

ProgramBody& Program::mut() {
  if (body_.use_count() != 1) {
    throw std::logic_error("js::Program: body mutated while another handle shares it");
  }
  delete body_->bytecode.exchange(nullptr);
  return *body_;
}

}  // namespace jsceres::js
