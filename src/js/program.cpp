#include "interp/shape.h"
#include "js/ast.h"

namespace jsceres::js {

// Out of line: the shape tree's type is complete only here.
Program::Program()
    : atoms(std::make_unique<AtomSpace>()), shape_root(interp::Shape::make_root(*atoms)) {}
Program::Program(Program&&) noexcept = default;
Program& Program::operator=(Program&&) noexcept = default;
Program::~Program() = default;

}  // namespace jsceres::js
