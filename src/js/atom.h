#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace jsceres::js {

class AtomSpace;

namespace detail {
/// Backing record of one interned string. Atom handles are raw pointers to
/// it, so equality is pointer identity and the hash is computed exactly
/// once. A record lives as long as the table that created it: the
/// process-wide prefix (never freed) or one program's AtomSpace.
struct AtomData {
  std::string text;
  std::size_t hash = 0;
  std::uint32_t id = 0;
};

/// Records by text: open addressing with linear probing, at most half
/// full. Records are never erased, so the index holds plain pointers and
/// a lookup allocates nothing. Not synchronized; its owner locks.
class AtomIndex {
 public:
  [[nodiscard]] const AtomData* find(std::string_view text, std::size_t hash) const;
  void insert(const AtomData* data);

 private:
  std::vector<const AtomData*> slots_;
  std::size_t size_ = 0;
};
}  // namespace detail

/// An interned string handle. The lexer interns every identifier and string
/// literal; the AST, environments and object shapes store Atoms instead of
/// std::string, so steady-state name comparisons are pointer compares and
/// map lookups reuse the precomputed hash.
///
/// There are two kinds of table. The process-wide *prefix* holds names the
/// engine and its tools spell themselves; it only grows and is never freed.
/// It is born holding the keywords and one static list of the engine's
/// names (the builtins' and the page bindings' keys, in atom.cpp), so those
/// are prefix atoms in every program, whenever it was parsed: the frozen
/// builtin realm (interp/realm.h) is keyed by them. Everything a program's
/// parse or run interns goes through that program's AtomSpace (see below),
/// which reads the prefix but never writes it. An Atom from a space stays
/// valid while some handle to its Program lives.
///
/// Atoms convert implicitly to `const std::string&`, which keeps printers,
/// reports and hook consumers source-compatible.
class Atom {
 public:
  /// The empty atom (""), a prefix atom.
  Atom() : data_(empty_data()) {}

  /// Intern `text` into the process-wide prefix. Thread-safe. Only for
  /// names the engine or a tool spells itself: a prefix atom is never
  /// freed, and a program that already made its own atom for `text` does
  /// not see this one — program names go through AtomSpace::intern.
  static Atom intern(std::string_view text);

  /// Look up `text` in the prefix without creating it.
  static bool try_find(std::string_view text, Atom* out);

  /// The atom of a name the engine spells itself: the builtin realm's keys
  /// and the page's and event loop's. Throws std::logic_error when `text`
  /// is not one of the engine spellings the prefix is built with
  /// (js/atom.cpp), because a program parsed before anything else ran would
  /// hold its own copy of such a name, which the engine's key would miss.
  static Atom engine_name(std::string_view text);

  /// The atom's text, stored in its record: valid as long as the atom.
  [[nodiscard]] const std::string& str() const { return data_->text; }
  [[nodiscard]] std::size_t hash() const { return data_->hash; }
  /// Dense id in intern order. Prefix ids and program ids come from
  /// disjoint ranges (program ids have kProgramIdBit set), so ids are
  /// unique among every atom one session can see — the dependence
  /// analyzer's dedup key.
  [[nodiscard]] std::uint32_t id() const { return data_->id; }
  [[nodiscard]] bool empty() const { return data_->text.empty(); }
  [[nodiscard]] std::size_t size() const { return data_->text.size(); }

  static constexpr std::uint32_t kProgramIdBit = 0x80000000u;

  operator const std::string&() const { return str(); }  // NOLINT(google-explicit-constructor)

  /// Identity compare: two atoms of one program are equal iff they intern
  /// the same text.
  bool operator==(const Atom& other) const { return data_ == other.data_; }
  bool operator!=(const Atom& other) const { return data_ != other.data_; }

  friend bool operator==(const Atom& a, std::string_view s) { return a.str() == s; }
  friend bool operator==(const Atom& a, const std::string& s) { return a.str() == s; }
  friend bool operator==(const Atom& a, const char* s) { return a.str() == s; }

  // Concatenation (std::string's templated operator+ can't see the implicit
  // conversion, so spell these out for printers and report formatting).
  friend std::string operator+(const std::string& lhs, const Atom& rhs) {
    return lhs + rhs.str();
  }
  friend std::string operator+(const Atom& lhs, const std::string& rhs) {
    return lhs.str() + rhs;
  }
  friend std::string operator+(const char* lhs, const Atom& rhs) {
    return lhs + rhs.str();
  }
  friend std::string operator+(const Atom& lhs, const char* rhs) {
    return lhs.str() + rhs;
  }

 private:
  friend class AtomSpace;
  friend class AtomCache;
  explicit Atom(const detail::AtomData* data) : data_(data) {}
  static const detail::AtomData* empty_data();

  const detail::AtomData* data_;
};

/// One program's atoms, owned by its js::Program's body and freed with it
/// in one step. intern() looks locally, then in the prefix, and else creates the
/// atom here; it never writes the prefix, so nothing process-wide can point
/// into a space. The answer for a given text never changes over the
/// space's life (a local atom always wins, and the prefix only grows), which
/// is what keeps identity within the program. The keywords and the engine's
/// names are in the prefix before any space can probe it, so they are never
/// local atoms.
/// Thread-safe: interpreters on several threads may share one program. One
/// plain mutex covers a whole lookup-or-create, so a local atom and a prefix
/// atom for one text can never both be handed out; it is per program, so it
/// is rarely contended. The lexer calls intern() once per distinct spelling
/// (its own table caches the answers for the rest of the source), so the
/// lock is not paid per token.
class AtomSpace {
 public:
  AtomSpace() = default;
  AtomSpace(const AtomSpace&) = delete;
  AtomSpace& operator=(const AtomSpace&) = delete;

  Atom intern(std::string_view text);

  /// Look up `text` without creating it (here, then in the prefix). A text
  /// that was never interned for this program cannot name its properties.
  bool try_find(std::string_view text, Atom* out) const;

  /// Atoms created in this space (prefix hits not counted).
  [[nodiscard]] std::size_t size() const;

  /// Calls `fn` on every atom created in this space, in creation order.
  void for_each(const std::function<void(Atom)>& fn) const;

 private:
  /// Local-then-prefix lookup; the caller holds mutex_.
  [[nodiscard]] const detail::AtomData* find_locked(std::string_view text,
                                                    std::size_t hash) const;

  mutable std::mutex mutex_;
  detail::AtomIndex index_;
  std::deque<detail::AtomData> storage_;
};

/// One thread's cache in front of a space, for the lexer: an open-addressed
/// table keyed by spelling, so the space's intern() (a lock and a probe)
/// runs once per distinct spelling. Unsynchronized; lives for one lex.
class AtomCache {
 public:
  explicit AtomCache(AtomSpace& space) : space_(space) {}

  Atom intern(std::string_view text);

 private:
  AtomSpace& space_;
  detail::AtomIndex index_;
};

/// Number of atoms in the process-wide prefix.
std::size_t atom_table_size();
/// Approximate bytes held by the prefix (record + text + index overhead).
std::size_t atom_table_bytes();

}  // namespace jsceres::js

template <>
struct std::hash<jsceres::js::Atom> {
  std::size_t operator()(const jsceres::js::Atom& atom) const noexcept {
    return atom.hash();
  }
};
