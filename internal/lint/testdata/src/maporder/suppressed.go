package maporder

// Allowed would be flagged (a range over a map), but the reasoned marker
// above the loop documents why order cannot be observed and suppresses it.
func Allowed(m map[string]int, ch chan string) {
	//lint:allow maporder the receiver drains into an order-insensitive set
	for k := range m {
		ch <- k
	}
}

// Unreasoned shows a marker without a reason: the marker itself is a
// finding, and it suppresses nothing, so the loop is still flagged too.
func Unreasoned(m map[string]int, ch chan string) {
	// want-next "needs a reason"
	//lint:allow maporder
	for k := range m { // want "range over map lets iteration order escape"
		ch <- k
	}
}
