#include <stdexcept>

#include "interp/shape.h"
#include "js/ast.h"

namespace jsceres::js {

// Out of line: the shape tree's type is complete only here.
ProgramBody::ProgramBody() : shape_root(interp::Shape::make_root(atoms)) {}
ProgramBody::~ProgramBody() = default;

Program::Program() : body_(std::make_shared<ProgramBody>()) {}

ProgramBody& Program::mut() {
  if (body_.use_count() != 1) {
    throw std::logic_error("js::Program: body mutated while another handle shares it");
  }
  return *body_;
}

}  // namespace jsceres::js
