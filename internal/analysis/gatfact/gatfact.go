// Package gatfact is the shared vocabulary of //gat: source
// annotations — the facts the gatvet analyzers exchange with the code
// they check. Keeping the vocabulary in one package means every
// analyzer (including future ones, such as PDES shard-safety) parses
// annotations identically and gatdir can police the whole vocabulary in
// one place.
//
// The vocabulary:
//
//	//gat:nondet-ok <reason>   allow one nondeterminism finding
//	                           (detmap, wallclock, seedrand) on this
//	                           line or the next
//	//gat:hotpath              subject this function to the hot-path
//	                           allocation contract (hotpath analyzer);
//	                           goes in the function's doc comment
//	//gat:alloc-ok <reason>    allow one hot-path finding on this line
//	                           or the next (cold paths such as panics
//	                           inside an otherwise hot function)
//
// Suppressions are line-scoped by construction: a directive covers
// findings on its own line (trailing comment) or the line directly
// below it (preceding comment), never the whole file or block. The
// reason is mandatory for suppressions — an unexplained exemption is
// itself a finding (gatdir).
package gatfact

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix introduces every directive comment.
const Prefix = "//gat:"

// Kind names one directive in the vocabulary.
type Kind string

const (
	// NondetOK allows one detmap/wallclock/seedrand finding.
	NondetOK Kind = "nondet-ok"
	// HotPath opts a function into the hot-path contract.
	HotPath Kind = "hotpath"
	// AllocOK allows one hotpath finding.
	AllocOK Kind = "alloc-ok"
)

// Known reports whether k is part of the vocabulary.
func Known(k Kind) bool {
	switch k {
	case NondetOK, HotPath, AllocOK:
		return true
	}
	return false
}

// NeedsReason reports whether the directive kind requires a
// justification after the keyword.
func NeedsReason(k Kind) bool { return k == NondetOK || k == AllocOK }

// Directive is one parsed //gat: comment.
type Directive struct {
	Kind   Kind
	Reason string
	Pos    token.Pos
	Line   int
}

// Parse extracts every //gat: directive from the file's comments.
func Parse(fset *token.FileSet, file *ast.File) []Directive {
	var out []Directive
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, Prefix)
			if !ok {
				continue
			}
			kind, reason, _ := strings.Cut(text, " ")
			out = append(out, Directive{
				Kind:   Kind(kind),
				Reason: strings.TrimSpace(reason),
				Pos:    c.Pos(),
				Line:   fset.Position(c.Pos()).Line,
			})
		}
	}
	return out
}

// Suppressed reports whether a finding of the given kind at pos is
// covered by a directive: same line (trailing comment) or the line
// immediately above (preceding comment). Directives missing their
// mandatory reason do not suppress — gatdir flags them instead, so a
// bare //gat:nondet-ok cannot silence anything.
func Suppressed(dirs []Directive, kind Kind, fset *token.FileSet, pos token.Pos) bool {
	line := fset.Position(pos).Line
	for _, d := range dirs {
		if d.Kind != kind {
			continue
		}
		if NeedsReason(kind) && d.Reason == "" {
			continue
		}
		if d.Line == line || d.Line == line-1 {
			return true
		}
	}
	return false
}

// IsHotPath reports whether the function declaration is annotated
// //gat:hotpath in its doc comment.
func IsHotPath(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, Prefix); ok {
			kind, _, _ := strings.Cut(text, " ")
			if Kind(kind) == HotPath {
				return true
			}
		}
	}
	return false
}
