package main

import (
	"testing"

	"tagprefetch/internal/cli/clitest"
)

func TestHelp(t *testing.T) { clitest.Help(t, run) }
