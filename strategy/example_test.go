package strategy_test

import (
	"fmt"
	"strings"

	"blazes/strategy"
)

// ExampleParse turns a preference list into its names: here the two
// extension strategies, then ordering. A name no strategy answers to fails
// the whole list, and the error lists the names that exist.
func ExampleParse() {
	list := strings.Join([]string{strategy.PartitionSealing, strategy.QuorumOrdering, strategy.Ordering}, ",")
	names, err := strategy.Parse(list)
	fmt.Println(names, err)
	_, err = strategy.Parse(strategy.Sealing + ",gossip")
	fmt.Println(err)
	// Output:
	// [partition-sealing quorum-ordering ordering] <nil>
	// unknown strategy "gossip" (registered: [ordering partition-sealing quorum-ordering sealing sequencing])
}
