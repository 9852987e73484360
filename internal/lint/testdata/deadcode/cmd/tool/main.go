// Command tool is the fixture module's non-test root.
package main

import (
	"flag"
	"fmt"

	"deadfix/internal/a"
	"deadfix/internal/b"
)

func main() {
	var level a.Level
	a.Register(flag.CommandLine, &level)
	a.UsedByTool()
	b.Call()
	fmt.Println(a.Drive(a.NewImpl()), a.Name(1), a.Block{})
}
