#include "KernelIsaPurityCheck.h"

#include "clang/AST/ASTContext.h"
#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/Regex.h"

using namespace clang::ast_matchers;

namespace clang::tidy::numarck {

namespace {

/// Fused multiply-add spellings: x86 (`_mm256_fmadd_pd`, masked AVX-512
/// variants), the compiler builtins, and NEON (`vfmaq_f64`, `vfms...`).
bool isFmaName(StringRef Name) {
  static const llvm::Regex X86Fma(
      "^_mm[0-9]*_(mask[z23]?_)?f(n)?m(add|sub|addsub|subadd)_");
  if (X86Fma.match(Name))
    return true;
  if (Name.starts_with("__builtin_fma"))
    return true;
  return Name.starts_with("vfma") || Name.starts_with("vfms");
}

/// Widest x86 vector prefix used by an intrinsic name, or empty.
StringRef x86Prefix(StringRef Name) {
  if (Name.starts_with("_mm512_"))
    return "_mm512_";
  if (Name.starts_with("_mm256_"))
    return "_mm256_";
  if (Name.starts_with("_mm_"))
    return "_mm_";
  return {};
}

/// x86 prefixes each ISA token may use. Scalar and unknown TUs get none.
llvm::ArrayRef<StringRef> allowedPrefixes(StringRef Isa) {
  static const StringRef Avx2[] = {"_mm_", "_mm256_"};
  static const StringRef Avx512[] = {"_mm_", "_mm256_", "_mm512_"};
  if (Isa == "avx2")
    return Avx2;
  if (Isa == "avx512")
    return Avx512;
  return {};
}

} // namespace

std::string KernelIsaPurityCheck::isaToken(const SourceManager &SM) const {
  StringRef Base = llvm::sys::path::filename(
      SM.getFilename(SM.getLocForStartOfFile(SM.getMainFileID())));
  static const llvm::Regex KernelTu("^kernels_([a-z0-9]+)\\.cpp$");
  llvm::SmallVector<StringRef, 2> Groups;
  if (!KernelTu.match(Base, &Groups))
    return {};
  return Groups[1].str();
}

void KernelIsaPurityCheck::registerMatchers(MatchFinder *Finder) {
  // Namespace-scope function definitions in the kernel TU itself.
  Finder->addMatcher(
      functionDecl(isDefinition(), isExpansionInMainFile(),
                   unless(cxxMethodDecl()), unless(isMain()))
          .bind("helper"),
      this);
  // Every call; intrinsic-ness is decided on the callee name in check().
  Finder->addMatcher(
      callExpr(isExpansionInMainFile(), callee(functionDecl().bind("callee")))
          .bind("call"),
      this);
}

void KernelIsaPurityCheck::check(const MatchFinder::MatchResult &Result) {
  const std::string Isa = isaToken(*Result.SourceManager);
  if (Isa.empty())
    return; // not a kernels_*.cpp TU

  if (const auto *Helper = Result.Nodes.getNodeAs<FunctionDecl>("helper")) {
    // The only symbols a kernel TU may export are the table accessors, which
    // are declared in kernels_common.hpp — i.e. they have a previous
    // declaration outside the main file. Everything else must be internal.
    if (!Helper->isExternallyVisible())
      return;
    const SourceManager &SM = *Result.SourceManager;
    for (const FunctionDecl *Redecl : Helper->redecls()) {
      if (Redecl != Helper &&
          !SM.isInMainFile(SM.getExpansionLoc(Redecl->getLocation())))
        return; // declared in a shared header: the sanctioned export
    }
    diag(Helper->getLocation(),
         "kernel helper %0 has external linkage; make it static (or move it "
         "into the anonymous namespace) so ISA TUs cannot alias each other")
        << Helper;
    return;
  }

  const auto *Call = Result.Nodes.getNodeAs<CallExpr>("call");
  const auto *Callee = Result.Nodes.getNodeAs<FunctionDecl>("callee");
  if (!Call || !Callee || !Callee->getDeclName().isIdentifier())
    return;
  StringRef Name = Callee->getName();

  if (isFmaName(Name)) {
    diag(Call->getBeginLoc(),
         "fused multiply-add intrinsic %0 is forbidden in kernel TUs: FMA "
         "changes rounding and breaks the cross-ISA bit-identity contract")
        << Callee;
    return;
  }

  StringRef Prefix = x86Prefix(Name);
  if (Prefix.empty())
    return;
  for (StringRef Allowed : allowedPrefixes(Isa)) {
    if (Prefix == Allowed)
      return;
  }
  diag(Call->getBeginLoc(),
       "intrinsic %0 is outside the '%1' ISA contract of this kernel TU; the "
       "dispatcher only probes for the TU's own ISA level")
      << Callee << Isa;
}

} // namespace clang::tidy::numarck
