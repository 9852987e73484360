// Package a is the deadcode fixture's library. The comment on each
// declaration says whether the check reports it, and why.
package a

import "flag"

func Unreferenced() {} // reported: nothing names it

func OnlyTests() {} // reported: only a_test.go calls it

// UsedByB is live: package b's non-test file calls it. Package a has an
// in-package test, so it is loaded as the test variant "a [a.test]" and
// matched to b's reference by its key, not its object.
func UsedByB() {}

func UsedByTool() {} // live: the command calls it

type Walker interface{ Step() int } // live: Drive's parameter names it

func Drive(w Walker) int { return w.Step() } // live: the command calls it

type impl struct{}

func NewImpl() Walker { return impl{} } // live: the command calls it

func (impl) Step() int { return 1 } // live only through Walker

type Name int // live: the command converts to it

func (n Name) String() string { return "name" } // live: fmt looks it up at run time

type Level int // live: the command declares one

func (l *Level) Set(s string) error { return nil } // live through flag.Value, flag.Var's parameter

func (l *Level) String() string { return "" } // live: fmt looks it up at run time

func Register(fs *flag.FlagSet, l *Level) { fs.Var(l, "level", "") } // live: the command calls it

type Block struct{} // live: the command builds one

// MarshalBinary is reported: no non-test code names
// encoding.BinaryMarshaler, so nothing reaches it through that interface.
func (Block) MarshalBinary() ([]byte, error) { return nil, nil }

//widxlint:ignore deadcode used by an out-of-module tool
func Excused() {} // not reported: the directive above gives a reason

//widxlint:ignore deadcode
func Reasonless() {} // reported, and so is its directive, which gives no reason
